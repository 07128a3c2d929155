//! The served path for the traced run: a `brc cluster` process tree
//! (router plus shards), brs2 requests, and the daemons' own counters.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use br_serve::proto2::{self, Client2, Frame2, ModuleRef};

/// Shard daemons behind the router.
const SHARDS: usize = 2;

/// A running `brc cluster`.
pub struct Cluster {
    child: Option<Child>,
    /// Router address.
    pub router: String,
    /// Shard addresses.
    pub shards: Vec<String>,
}

/// Pick `n` consecutive free localhost ports.
fn free_ports(n: u16) -> Result<u16, String> {
    let salt = (std::process::id() as u64).wrapping_mul(2_654_435_761);
    for attempt in 0..64u64 {
        let base = 20_000 + ((salt + attempt * 7_919) % 30_000) as u16;
        let all_free = (0..n).all(|i| std::net::TcpListener::bind(("127.0.0.1", base + i)).is_ok());
        if all_free {
            return Ok(base);
        }
    }
    Err("no free block of localhost ports".to_string())
}

impl Cluster {
    /// Spawn `brc cluster` with a cache under `cache` and wait until the
    /// router answers a health probe (it starts only after every shard
    /// has).
    pub fn start(brc: &Path, cache: &Path, log: &Path) -> Result<Cluster, String> {
        let base = free_ports(SHARDS as u16 + 1)?;
        let router = format!("127.0.0.1:{base}");
        let shards = (1..=SHARDS as u16)
            .map(|i| format!("127.0.0.1:{}", base + i))
            .collect();
        let log = std::fs::File::create(log).map_err(|e| format!("cluster log: {e}"))?;
        let child = Command::new(brc)
            .args(["cluster", "--addr", &router, "--shards"])
            .arg(SHARDS.to_string())
            .arg("--base-port")
            .arg((base + 1).to_string())
            .args(["--threads", "1", "--cache"])
            .arg(cache)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", brc.display()))?;
        let mut cluster = Cluster {
            child: Some(child),
            router,
            shards,
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let healthy = Client2::connect(&cluster.router)
                .and_then(|mut c| c.call(&Frame2::request(proto2::kind::HEALTH, &[])))
                .is_ok_and(|r| r.kind == proto2::kind::OK);
            if healthy {
                return Ok(cluster);
            }
            if Instant::now() > deadline {
                cluster.kill();
                return Err("cluster did not become healthy within 30 s".to_string());
            }
            if let Some(Ok(Some(status))) = cluster.child.as_mut().map(|c| c.try_wait()) {
                cluster.child = None;
                return Err(format!("cluster exited during start-up: {status}"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// The router's and every shard's exported counters, summed by name
    /// (`br_serve_cache_hits_total` and so on).
    pub fn counters(&self) -> Result<BTreeMap<String, u64>, String> {
        let mut out = BTreeMap::new();
        for addr in std::iter::once(&self.router).chain(&self.shards) {
            let mut c = Client2::connect(addr).map_err(|e| format!("metrics {addr}: {e}"))?;
            let r = c
                .call(&Frame2::request(proto2::kind::METRICS, &[]))
                .map_err(|e| format!("metrics {addr}: {e}"))?;
            for line in r.payload_text().lines() {
                if let Some((name, value)) = line.split_once(' ') {
                    if name.ends_with("_total") && !name.contains('{') {
                        if let Ok(v) = value.trim().parse::<u64>() {
                            *out.entry(name.to_string()).or_insert(0) += v;
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    /// Drain the cluster through the router and wait for the whole tree
    /// to exit; kill it if it does not within ten seconds.
    pub fn stop(mut self) -> Result<(), String> {
        let Some(mut child) = self.child.take() else {
            return Ok(());
        };
        let _ = Client2::connect(&self.router)
            .and_then(|mut c| c.call(&Frame2::request(proto2::kind::SHUTDOWN, &[])));
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("cluster exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => {
                    kill_tree(&mut child);
                    return Err("cluster ignored the drain and was killed".to_string());
                }
            }
        }
    }

    fn kill(&mut self) {
        if let Some(mut child) = self.child.take() {
            kill_tree(&mut child);
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Kill the supervisor's children, then the supervisor, and reap it.
fn kill_tree(child: &mut Child) {
    for pid in crate::rss::children(child.id()) {
        let _ = Command::new("kill")
            .args(["-KILL", &pid.to_string()])
            .status();
    }
    let _ = child.kill();
    let _ = child.wait();
}

/// One brs2 request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Opcode (`proto2::kind::REORDER` or `MEASURE`).
    pub kind: u8,
    /// Module operands, uploaded once per connection and then sent by hash.
    pub modules: Vec<ModuleRef>,
    /// The other sections.
    pub plain: Vec<(u8, Vec<u8>)>,
}

impl Request {
    fn plain(&self) -> Vec<(u8, &[u8])> {
        self.plain
            .iter()
            .map(|(id, b)| (*id, b.as_slice()))
            .collect()
    }

    /// Send on `client`.
    pub fn send(&self, client: &mut Client2) -> std::io::Result<Frame2> {
        client.call_interned(self.kind, &self.modules, &self.plain())
    }
}

/// A scratch cache directory, emptied first.
pub fn fresh_dir(dir: PathBuf) -> Result<PathBuf, String> {
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}
