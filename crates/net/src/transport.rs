//! Address parsing and the TCP / Unix-socket transports.
//!
//! One address grammar everywhere: `unix:<path>` selects a Unix domain
//! socket, anything else must be a `host:port` pair. [`Conn`] unifies
//! the two stream types behind `Read + Write`, and the `send_msg` /
//! `recv_msg` helpers layer the frame codec and the `net.*` telemetry
//! counters on top.

use crate::frame::{self, FrameError};
use crate::msg::Msg;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;

/// A parsed listen or connect address.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Addr {
    /// `host:port` over TCP.
    Tcp(String),
    /// `unix:<path>` over a Unix domain socket.
    Unix(PathBuf),
}

impl Addr {
    /// Parse an address string. Accepts `unix:<path>` or `host:port`;
    /// anything else is an error describing the expected grammar.
    pub fn parse(s: &str) -> Result<Addr, String> {
        if let Some(path) = s.strip_prefix("unix:") {
            if path.is_empty() {
                return Err("empty unix socket path (expected unix:<path>)".into());
            }
            return Ok(Addr::Unix(PathBuf::from(path)));
        }
        let Some((host, port)) = s.rsplit_once(':') else {
            return Err(format!("'{s}' is not an address (expected host:port or unix:<path>)"));
        };
        if host.is_empty() {
            return Err(format!("'{s}' has an empty host (expected host:port)"));
        }
        if port.parse::<u16>().is_err() {
            return Err(format!("'{s}' has an invalid port '{port}' (expected 0-65535)"));
        }
        Ok(Addr::Tcp(s.to_string()))
    }

    /// The Unix socket path, when this is a Unix address.
    pub fn unix_path(&self) -> Option<&PathBuf> {
        match self {
            Addr::Unix(p) => Some(p),
            Addr::Tcp(_) => None,
        }
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Addr::Tcp(hp) => write!(f, "{hp}"),
            Addr::Unix(p) => write!(f, "unix:{}", p.display()),
        }
    }
}

#[cfg(not(unix))]
fn unsupported() -> io::Error {
    io::Error::new(io::ErrorKind::Unsupported, "unix sockets are not supported on this platform")
}

/// A bound listener on either transport.
pub enum Listener {
    /// TCP listener.
    Tcp(TcpListener),
    /// Unix-socket listener.
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixListener),
}

impl Listener {
    /// Bind `addr`. A stale Unix socket file from a previous run is
    /// removed first (the standard daemon idiom).
    pub fn bind(addr: &Addr) -> io::Result<Listener> {
        match addr {
            Addr::Tcp(hp) => TcpListener::bind(hp.as_str()).map(Listener::Tcp),
            Addr::Unix(path) => {
                #[cfg(unix)]
                {
                    let _ = std::fs::remove_file(path);
                    std::os::unix::net::UnixListener::bind(path).map(Listener::Unix)
                }
                #[cfg(not(unix))]
                {
                    let _ = path;
                    Err(unsupported())
                }
            }
        }
    }

    /// Accept one connection, blocking until one arrives.
    pub fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                // Mirror the connect side: without TCP_NODELAY, Nagle
                // delays small response frames by tens of milliseconds.
                s.set_nodelay(true)?;
                Ok(Conn::Tcp(s))
            }
            #[cfg(unix)]
            Listener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
        }
    }

    /// The address this listener is actually bound to — how callers
    /// discover the ephemeral port after binding `127.0.0.1:0`.
    pub fn local_addr(&self) -> io::Result<Addr> {
        match self {
            Listener::Tcp(l) => Ok(Addr::Tcp(l.local_addr()?.to_string())),
            #[cfg(unix)]
            Listener::Unix(l) => {
                let sa = l.local_addr()?;
                let path = sa
                    .as_pathname()
                    .ok_or_else(|| io::Error::other("unix listener has no pathname"))?;
                Ok(Addr::Unix(path.to_path_buf()))
            }
        }
    }
}

/// One connection over either transport.
pub enum Conn {
    /// TCP stream.
    Tcp(TcpStream),
    /// Unix-socket stream.
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixStream),
}

impl Conn {
    /// Connect to `addr`.
    pub fn connect(addr: &Addr) -> io::Result<Conn> {
        match addr {
            Addr::Tcp(hp) => {
                let s = TcpStream::connect(hp.as_str())?;
                s.set_nodelay(true)?;
                Ok(Conn::Tcp(s))
            }
            Addr::Unix(path) => {
                #[cfg(unix)]
                {
                    std::os::unix::net::UnixStream::connect(path).map(Conn::Unix)
                }
                #[cfg(not(unix))]
                {
                    let _ = path;
                    Err(unsupported())
                }
            }
        }
    }

    /// A connected in-process pair — Unix socketpair where available,
    /// loopback TCP otherwise. Used by tests and the benchmark to send
    /// frames over a real socket without binding an address.
    pub fn pair() -> io::Result<(Conn, Conn)> {
        #[cfg(unix)]
        {
            let (a, b) = std::os::unix::net::UnixStream::pair()?;
            Ok((Conn::Unix(a), Conn::Unix(b)))
        }
        #[cfg(not(unix))]
        {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            let addr = listener.local_addr()?;
            let client = TcpStream::connect(addr)?;
            let (server, _) = listener.accept()?;
            client.set_nodelay(true)?;
            server.set_nodelay(true)?;
            Ok((Conn::Tcp(server), Conn::Tcp(client)))
        }
    }

    /// A second handle to the same underlying socket, so one thread
    /// can write requests while another reads responses (the pipelined
    /// serve client). Both handles share the kernel stream; closing
    /// either direction affects both.
    pub fn try_clone(&self) -> io::Result<Conn> {
        match self {
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
            #[cfg(unix)]
            Conn::Unix(s) => s.try_clone().map(Conn::Unix),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// Frame and send one already-encoded message payload, bumping the
/// `net.frames_tx` / `net.bytes_tx` counters.
pub fn send_payload(conn: &mut Conn, payload: &[u8]) -> Result<(), String> {
    let bytes = frame::write_frame(conn, payload).map_err(|e| format!("send failed: {e}"))?;
    mars_telemetry::counter("net.frames_tx").inc();
    mars_telemetry::counter("net.bytes_tx").add(bytes as u64);
    Ok(())
}

/// Encode, frame and send one message (see [`send_payload`]).
pub fn send_msg(conn: &mut Conn, msg: &Msg) -> Result<(), String> {
    send_payload(conn, &msg.to_bytes())
}

/// Receive one message; `Ok(None)` on a clean hang-up. Framing and
/// decoding failures are both connection-fatal errors.
pub fn recv_msg(conn: &mut Conn) -> Result<Option<Msg>, String> {
    let payload = match frame::read_frame(conn) {
        Ok(None) => return Ok(None),
        Ok(Some(p)) => p,
        Err(FrameError::Io(e)) => return Err(format!("receive failed: {e}")),
        Err(e) => return Err(format!("protocol violation: {e}")),
    };
    mars_telemetry::counter("net.frames_rx").inc();
    mars_telemetry::counter("net.bytes_rx").add((frame::HEADER_LEN + payload.len()) as u64);
    Msg::from_bytes(&payload).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_tcp_and_unix_addresses() {
        assert_eq!(Addr::parse("127.0.0.1:9000"), Ok(Addr::Tcp("127.0.0.1:9000".into())));
        assert_eq!(Addr::parse("unix:/tmp/mars.sock"), Ok(Addr::Unix("/tmp/mars.sock".into())));
        assert_eq!(Addr::parse("localhost:0"), Ok(Addr::Tcp("localhost:0".into())));
    }

    #[test]
    fn rejects_malformed_addresses() {
        for bad in ["", "no-port", "host:", "host:-1", "host:70000", ":9000", "unix:"] {
            let err = Addr::parse(bad).expect_err(bad);
            assert!(!err.is_empty(), "'{bad}' must be rejected with a reason");
        }
    }

    #[test]
    fn display_roundtrips_through_parse() {
        for s in ["10.0.0.1:4242", "unix:/run/mars.sock"] {
            let a = Addr::parse(s).expect("parses");
            assert_eq!(a.to_string(), s);
            assert_eq!(Addr::parse(&a.to_string()), Ok(a));
        }
    }

    #[test]
    fn messages_cross_a_connection_pair() {
        let (mut a, mut b) = Conn::pair().expect("socketpair");
        let msg = Msg::Hello { version: crate::msg::PROTOCOL_VERSION };
        send_msg(&mut a, &msg).expect("send");
        assert_eq!(recv_msg(&mut b).expect("recv"), Some(msg));
        drop(a);
        assert_eq!(recv_msg(&mut b).expect("clean eof"), None);
    }
}
