//! Device and interconnect models.
//!
//! The default [`Cluster`] mirrors the paper's testbed: one CPU domain
//! (2× Intel E5-2650 v4, 125 GB RAM) and four NVIDIA P100 GPUs (12 GB
//! each) connected over PCIe. Throughput constants are *effective
//! training* rates calibrated so that the benchmark workloads land at
//! the paper's absolute per-step times (see DESIGN.md §2).

use mars_json::Json;

/// Index of a device within a [`Cluster`].
pub type DeviceId = usize;

/// Device class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeviceKind {
    /// Host CPU domain.
    Cpu,
    /// A discrete GPU.
    Gpu,
}

/// One computational device.
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceSpec {
    /// Display name (`"/gpu:0"`).
    pub name: String,
    /// Device class.
    pub kind: DeviceKind,
    /// Effective peak throughput in GFLOP/s for large ops.
    pub peak_gflops: f64,
    /// FLOP count at which an op reaches 50% of peak utilization
    /// (models kernel-launch inefficiency for small ops).
    pub util_knee_flops: f64,
    /// Fixed per-op overhead in seconds (kernel launch / op dispatch).
    pub op_overhead_s: f64,
    /// Memory capacity in bytes.
    pub memory_bytes: u64,
}

impl DeviceSpec {
    /// The paper's P100 (12 GB), with effective-training throughput.
    pub fn p100(index: usize) -> Self {
        DeviceSpec {
            name: format!("/gpu:{index}"),
            kind: DeviceKind::Gpu,
            peak_gflops: 600.0,
            util_knee_flops: 2e8,
            op_overhead_s: 20e-6,
            memory_bytes: 12 << 30,
        }
    }

    /// The paper's dual-Xeon CPU domain (125 GB).
    pub fn xeon() -> Self {
        DeviceSpec {
            name: "/cpu:0".into(),
            kind: DeviceKind::Cpu,
            peak_gflops: 50.0,
            util_knee_flops: 5e7,
            op_overhead_s: 60e-6,
            memory_bytes: 125 << 30,
        }
    }
}

/// A directed interconnect between two devices.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkSpec {
    /// Sustained bandwidth in bytes/second.
    pub bandwidth_bps: f64,
    /// Per-transfer latency in seconds.
    pub latency_s: f64,
}

impl LinkSpec {
    /// PCIe 3.0 x16 with realistic contention (~6 GB/s sustained).
    pub fn pcie() -> Self {
        LinkSpec { bandwidth_bps: 6e9, latency_s: 20e-6 }
    }

    /// Time to move `bytes` across this link.
    pub fn transfer_time(&self, bytes: u64) -> f64 {
        self.latency_s + bytes as f64 / self.bandwidth_bps
    }
}

/// A set of devices plus the pairwise interconnect.
#[derive(Clone, Debug, PartialEq)]
pub struct Cluster {
    devices: Vec<DeviceSpec>,
    /// Uniform link used between every distinct device pair (fallback
    /// when no per-pair override exists).
    link: LinkSpec,
    /// Optional per-pair overrides, keyed `from * num_devices + to`.
    /// Absent in older serialized clusters; decoding defaults to empty.
    link_overrides: Vec<Option<LinkSpec>>,
    /// Per-device failure mask. Failed devices keep their id (the
    /// placer's action space stays stable) but accept no work; see
    /// [`Placement::remap_failed`](crate::Placement::remap_failed).
    failed: Vec<bool>,
}

impl Cluster {
    /// Build from explicit parts.
    pub fn new(devices: Vec<DeviceSpec>, link: LinkSpec) -> Self {
        assert!(!devices.is_empty(), "cluster needs at least one device");
        let failed = vec![false; devices.len()];
        Cluster { devices, link, link_overrides: Vec::new(), failed }
    }

    /// Override the link between a specific ordered device pair (both
    /// directions must be set separately; use twice for symmetry).
    pub fn set_link(&mut self, from: DeviceId, to: DeviceId, link: LinkSpec) {
        let nd = self.devices.len();
        assert!(from < nd && to < nd && from != to, "invalid link pair {from}->{to}");
        if self.link_overrides.is_empty() {
            self.link_overrides = vec![None; nd * nd];
        }
        self.link_overrides[from * nd + to] = Some(link);
    }

    /// The paper's testbed: 1 CPU domain + 4 P100 GPUs over PCIe.
    /// Device 0 is the CPU.
    pub fn p100_quad() -> Self {
        let mut devices = vec![DeviceSpec::xeon()];
        for i in 0..4 {
            devices.push(DeviceSpec::p100(i));
        }
        Cluster::new(devices, LinkSpec::pcie())
    }

    /// A heterogeneous testbed (the paper's intro motivates placement
    /// across "a heterogeneous mix of computational devices"): CPU +
    /// 2 fast GPUs joined by an NVLink-class link + 2 older, slower
    /// GPUs (half throughput, same 12 GB) on PCIe.
    pub fn heterogeneous() -> Self {
        let mut devices = vec![DeviceSpec::xeon()];
        for i in 0..2 {
            devices.push(DeviceSpec::p100(i));
        }
        for i in 2..4 {
            let mut d = DeviceSpec::p100(i);
            d.name = format!("/gpu:{i} (old)");
            d.peak_gflops /= 2.0;
            d.util_knee_flops *= 2.0;
            devices.push(d);
        }
        let mut c = Cluster::new(devices, LinkSpec::pcie());
        // NVLink between the two fast GPUs (devices 1 and 2).
        let nvlink = LinkSpec { bandwidth_bps: 40e9, latency_s: 5e-6 };
        c.set_link(1, 2, nvlink);
        c.set_link(2, 1, nvlink);
        c
    }

    /// Number of devices (the placer's action-space size).
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// Device accessor.
    pub fn device(&self, id: DeviceId) -> &DeviceSpec {
        &self.devices[id]
    }

    /// All devices.
    pub fn devices(&self) -> &[DeviceSpec] {
        &self.devices
    }

    /// Ids of GPU devices.
    pub fn gpu_ids(&self) -> Vec<DeviceId> {
        (0..self.devices.len()).filter(|&i| self.devices[i].kind == DeviceKind::Gpu).collect()
    }

    /// Id of the (first) CPU device.
    pub fn cpu_id(&self) -> DeviceId {
        (0..self.devices.len())
            .find(|&i| self.devices[i].kind == DeviceKind::Cpu)
            .expect("cluster has a CPU")
    }

    /// Permanently mark a device as failed. Its id stays valid (the
    /// action space does not shrink) but placements must be remapped
    /// off it before simulation. Failing the CPU is rejected — ops
    /// without a GPU kernel need somewhere to live.
    pub fn fail_device(&mut self, id: DeviceId) {
        assert!(id < self.devices.len(), "fail_device: no device {id}");
        assert!(self.devices[id].kind != DeviceKind::Cpu, "fail_device: the CPU cannot fail");
        self.failed[id] = true;
    }

    /// True when the device has not failed.
    pub fn is_alive(&self, id: DeviceId) -> bool {
        !self.failed[id]
    }

    /// True when any device has failed.
    pub fn has_failures(&self) -> bool {
        self.failed.iter().any(|&f| f)
    }

    /// Ids of failed devices.
    pub fn failed_ids(&self) -> Vec<DeviceId> {
        (0..self.devices.len()).filter(|&i| self.failed[i]).collect()
    }

    /// Ids of GPUs still alive.
    pub fn live_gpu_ids(&self) -> Vec<DeviceId> {
        self.gpu_ids().into_iter().filter(|&i| !self.failed[i]).collect()
    }

    /// Number of devices still alive.
    pub fn num_live_devices(&self) -> usize {
        self.failed.iter().filter(|&&f| !f).count()
    }

    /// The interconnect between two distinct devices.
    pub fn link(&self, from: DeviceId, to: DeviceId) -> LinkSpec {
        if !self.link_overrides.is_empty() {
            if let Some(l) = self.link_overrides[from * self.devices.len() + to] {
                return l;
            }
        }
        self.link
    }

    /// Serialize to a [`Json`] value tree.
    pub fn to_json_value(&self) -> Json {
        Json::obj([
            ("devices", Json::arr(self.devices.iter().map(DeviceSpec::to_json_value))),
            ("link", self.link.to_json_value()),
            (
                "link_overrides",
                Json::arr(self.link_overrides.iter().map(|o| match o {
                    Some(l) => l.to_json_value(),
                    None => Json::Null,
                })),
            ),
            ("failed", Json::arr(self.failed.iter().map(|&f| Json::from(f)))),
        ])
    }

    /// Decode a [`Cluster`] object. A missing `link_overrides` field is
    /// treated as empty (older snapshots predate per-pair links).
    pub fn from_json_value(v: &Json) -> Result<Self, String> {
        let devices = v["devices"]
            .as_array()
            .ok_or("cluster: missing 'devices'")?
            .iter()
            .map(DeviceSpec::from_json_value)
            .collect::<Result<Vec<_>, _>>()?;
        if devices.is_empty() {
            return Err("cluster: needs at least one device".into());
        }
        let link = LinkSpec::from_json_value(&v["link"])?;
        let link_overrides =
            match &v["link_overrides"] {
                Json::Null => Vec::new(),
                overrides => overrides
                    .as_array()
                    .ok_or("cluster: 'link_overrides' must be an array")?
                    .iter()
                    .map(|o| {
                        if o.is_null() {
                            Ok(None)
                        } else {
                            LinkSpec::from_json_value(o).map(Some)
                        }
                    })
                    .collect::<Result<Vec<_>, String>>()?,
            };
        if !link_overrides.is_empty() && link_overrides.len() != devices.len() * devices.len() {
            return Err("cluster: 'link_overrides' has wrong length".into());
        }
        // Older snapshots predate the failure mask; default all-alive.
        let failed = match &v["failed"] {
            Json::Null => vec![false; devices.len()],
            mask => mask
                .as_array()
                .ok_or("cluster: 'failed' must be an array")?
                .iter()
                .map(|b| b.as_bool().ok_or_else(|| "cluster: bad 'failed' entry".to_string()))
                .collect::<Result<Vec<_>, _>>()?,
        };
        if failed.len() != devices.len() {
            return Err("cluster: 'failed' has wrong length".into());
        }
        Ok(Cluster { devices, link, link_overrides, failed })
    }
}

impl DeviceKind {
    fn to_json_value(self) -> Json {
        Json::Str(match self {
            DeviceKind::Cpu => "Cpu".into(),
            DeviceKind::Gpu => "Gpu".into(),
        })
    }

    fn from_json_value(v: &Json) -> Result<Self, String> {
        match v.as_str() {
            Some("Cpu") => Ok(DeviceKind::Cpu),
            Some("Gpu") => Ok(DeviceKind::Gpu),
            other => Err(format!("device kind: expected 'Cpu'/'Gpu', got {other:?}")),
        }
    }
}

impl DeviceSpec {
    /// JSON encoding as an object of the spec's fields.
    pub fn to_json_value(&self) -> Json {
        Json::obj([
            ("name", Json::from(&self.name)),
            ("kind", self.kind.to_json_value()),
            ("peak_gflops", Json::from(self.peak_gflops)),
            ("util_knee_flops", Json::from(self.util_knee_flops)),
            ("op_overhead_s", Json::from(self.op_overhead_s)),
            ("memory_bytes", Json::from(self.memory_bytes)),
        ])
    }

    /// Decode a [`DeviceSpec`] object.
    pub fn from_json_value(v: &Json) -> Result<Self, String> {
        Ok(DeviceSpec {
            name: v["name"].as_str().ok_or("device: missing 'name'")?.to_string(),
            kind: DeviceKind::from_json_value(&v["kind"])?,
            peak_gflops: v["peak_gflops"].as_f64().ok_or("device: missing 'peak_gflops'")?,
            util_knee_flops: v["util_knee_flops"]
                .as_f64()
                .ok_or("device: missing 'util_knee_flops'")?,
            op_overhead_s: v["op_overhead_s"].as_f64().ok_or("device: missing 'op_overhead_s'")?,
            memory_bytes: v["memory_bytes"].as_u64().ok_or("device: missing 'memory_bytes'")?,
        })
    }
}

impl LinkSpec {
    /// JSON encoding as a `{bandwidth_bps, latency_s}` object.
    pub fn to_json_value(&self) -> Json {
        Json::obj([
            ("bandwidth_bps", Json::from(self.bandwidth_bps)),
            ("latency_s", Json::from(self.latency_s)),
        ])
    }

    /// Decode a [`LinkSpec`] object.
    pub fn from_json_value(v: &Json) -> Result<Self, String> {
        Ok(LinkSpec {
            bandwidth_bps: v["bandwidth_bps"].as_f64().ok_or("link: missing 'bandwidth_bps'")?,
            latency_s: v["latency_s"].as_f64().ok_or("link: missing 'latency_s'")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quad_layout() {
        let c = Cluster::p100_quad();
        assert_eq!(c.num_devices(), 5);
        assert_eq!(c.cpu_id(), 0);
        assert_eq!(c.gpu_ids(), vec![1, 2, 3, 4]);
        assert_eq!(c.device(1).memory_bytes, 12 << 30);
        assert!(c.device(0).memory_bytes > c.device(1).memory_bytes);
    }

    #[test]
    fn transfer_time_monotone_in_bytes() {
        let l = LinkSpec::pcie();
        assert!(l.transfer_time(1 << 20) < l.transfer_time(1 << 24));
        assert!(l.transfer_time(0) == l.latency_s);
    }

    #[test]
    fn gpu_much_faster_than_cpu() {
        let c = Cluster::p100_quad();
        assert!(c.device(1).peak_gflops > 5.0 * c.device(0).peak_gflops);
    }

    #[test]
    fn heterogeneous_cluster_structure() {
        let c = Cluster::heterogeneous();
        assert_eq!(c.num_devices(), 5);
        // Fast pair vs old pair.
        assert!(c.device(1).peak_gflops > 1.9 * c.device(3).peak_gflops);
        // NVLink only between the fast pair.
        let nv = c.link(1, 2);
        let pcie = c.link(1, 3);
        assert!(nv.bandwidth_bps > 5.0 * pcie.bandwidth_bps);
        assert!(nv.latency_s < pcie.latency_s);
        assert_eq!(c.link(3, 4).bandwidth_bps, pcie.bandwidth_bps);
    }

    #[test]
    fn failure_mask_tracks_live_devices() {
        let mut c = Cluster::p100_quad();
        assert!(!c.has_failures());
        assert_eq!(c.num_live_devices(), 5);
        c.fail_device(2);
        assert!(c.has_failures());
        assert!(!c.is_alive(2));
        assert!(c.is_alive(1));
        assert_eq!(c.failed_ids(), vec![2]);
        assert_eq!(c.live_gpu_ids(), vec![1, 3, 4]);
        assert_eq!(c.num_live_devices(), 4);
        // Ids remain stable: the action space does not shrink.
        assert_eq!(c.num_devices(), 5);
        assert_eq!(c.gpu_ids(), vec![1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "CPU cannot fail")]
    fn cpu_failure_is_rejected() {
        Cluster::p100_quad().fail_device(0);
    }

    #[test]
    fn failure_mask_roundtrips_through_json() {
        let mut c = Cluster::p100_quad();
        c.fail_device(3);
        let text = c.to_json_value().to_string();
        let back = Cluster::from_json_value(&Json::parse(&text).unwrap()).expect("roundtrip");
        assert_eq!(back.failed_ids(), vec![3]);
        // Snapshots without the mask decode as all-alive.
        let legacy = r#"{"devices":[{"name":"/cpu:0","kind":"Cpu","peak_gflops":50.0,
            "util_knee_flops":5e7,"op_overhead_s":6e-5,"memory_bytes":1000}],
            "link":{"bandwidth_bps":6e9,"latency_s":2e-5}}"#;
        let old = Cluster::from_json_value(&Json::parse(legacy).unwrap()).expect("legacy decode");
        assert!(!old.has_failures());
    }

    #[test]
    fn set_link_is_directional() {
        let mut c = Cluster::p100_quad();
        let fast = LinkSpec { bandwidth_bps: 50e9, latency_s: 1e-6 };
        c.set_link(1, 2, fast);
        assert_eq!(c.link(1, 2).bandwidth_bps, 50e9);
        // Reverse direction unchanged.
        assert_eq!(c.link(2, 1).bandwidth_bps, LinkSpec::pcie().bandwidth_bps);
    }
}
