//! The closed-loop socket client.
//!
//! `--conns` keep-alive connections, one thread each, zero think time:
//! every connection is one editor user waiting for its reply before the
//! next request. All connections draw from one shared cursor over the
//! request sequence, so the server sees the sequence in cyclic order.
//!
//! A warm-up pass (`--warmup` requests) runs first and is timed on its
//! own. The timed phase then runs for `--seconds`; `/metrics` and
//! `/status` are scraped just before and just after it, and the CPU
//! steal share over it is read from `/proc/stat`. A response carrying
//! `Connection: close` (the server's `--keepalive-max` budget) is
//! normal: the client reconnects and counts it.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use prospector_obs::Json;

use crate::workload::{read_expect, read_requests, Expect};
use crate::Args;

/// One keep-alive client connection.
struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    reconnects: u64,
    connected_once: bool,
}

impl Conn {
    fn new(addr: SocketAddr) -> Conn {
        Conn {
            addr,
            stream: None,
            buf: Vec::with_capacity(8192),
            reconnects: 0,
            connected_once: false,
        }
    }

    /// Sends one request and reads its response: `(status, body)`.
    /// Any I/O failure drops the connection (the next call reconnects).
    fn send(&mut self, raw: &[u8]) -> Result<(u16, String), String> {
        let result = self.exchange(raw);
        if result.is_err() {
            self.stream = None;
        }
        result
    }

    fn exchange(&mut self, raw: &[u8]) -> Result<(u16, String), String> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
            let _ = stream.set_nodelay(true);
            let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
            if self.connected_once {
                self.reconnects += 1;
            }
            self.connected_once = true;
            self.stream = Some(stream);
        }
        let stream = self.stream.as_mut().expect("connected above");
        stream.write_all(raw).map_err(|e| format!("write: {e}"))?;
        self.buf.clear();
        let mut chunk = [0u8; 16384];
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos + 4;
            }
            let n = stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err("connection closed before a response".to_owned());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| "non-UTF-8 head")?;
        let code: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|c| c.parse().ok())
            .ok_or_else(|| format!("bad status line in {head:?}"))?;
        let mut length = 0usize;
        let mut close = false;
        for line in head.lines() {
            if let Some((name, value)) = line.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.parse().map_err(|_| "bad Content-Length")?;
                } else if name.eq_ignore_ascii_case("connection") {
                    close = value.eq_ignore_ascii_case("close");
                }
            }
        }
        while self.buf.len() < head_end + length {
            let n = stream
                .read(&mut chunk)
                .map_err(|e| format!("read body: {e}"))?;
            if n == 0 {
                return Err("connection closed mid-body".to_owned());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let body = String::from_utf8_lossy(&self.buf[head_end..head_end + length]).into_owned();
        if close {
            self.stream = None;
        }
        Ok((code, body))
    }
}

/// One request as the client saw it.
struct Sample {
    idx: usize,
    lat_ns: u64,
    code: u16,
    body: String,
}

/// The raw request bytes for a target path.
pub fn raw_request(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: perfbench\r\n\r\n").into_bytes()
}

/// Runs `conns` closed-loop clients over `raws` until `stop` says so.
/// Returns every sample plus the total reconnect count.
fn drive(
    addr: SocketAddr,
    conns: usize,
    raws: &[Vec<u8>],
    cursor: &AtomicUsize,
    stop: &(dyn Fn(usize, Instant) -> bool + Sync),
) -> (Vec<Sample>, u64) {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|_| {
                scope.spawn(move || {
                    let mut conn = Conn::new(addr);
                    let mut samples = Vec::new();
                    loop {
                        let seq = cursor.fetch_add(1, Ordering::Relaxed);
                        if stop(seq, Instant::now()) {
                            break;
                        }
                        let idx = seq % raws.len();
                        let started = Instant::now();
                        let (code, body) = conn.send(&raws[idx]).unwrap_or_else(|e| (0, e));
                        samples.push(Sample {
                            idx,
                            lat_ns: started.elapsed().as_nanos() as u64,
                            code,
                            body,
                        });
                    }
                    (samples, conn.reconnects)
                })
            })
            .collect();
        let mut all = Vec::new();
        let mut reconnects = 0;
        for h in handles {
            let (samples, r) = h.join().expect("client thread");
            all.extend(samples);
            reconnects += r;
        }
        (all, reconnects)
    })
}

/// `GET path` on a fresh connection; the body, or an error.
fn scrape(addr: SocketAddr, path: &str) -> Result<String, String> {
    let mut conn = Conn::new(addr);
    match conn.send(&raw_request(path))? {
        (200, body) => Ok(body),
        (code, body) => Err(format!("{path}: HTTP {code}: {body}")),
    }
}

/// Aggregate CPU jiffies from the first line of `/proc/stat`:
/// `(total, steal, idle + iowait)`.
fn cpu_times() -> (u64, u64, u64) {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    // — guest time is already counted in user/nice.
    let total: u64 = fields.iter().take(8).sum();
    let steal = fields.get(7).copied().unwrap_or(0);
    let idle = fields.get(3).copied().unwrap_or(0) + fields.get(4).copied().unwrap_or(0);
    (total, steal, idle)
}

/// Checks every sample; returns `(correct, error messages, codes)`.
fn check(
    samples: &[Sample],
    paths: &[String],
    expect: &BTreeMap<String, Expect>,
) -> (u64, Vec<String>, BTreeMap<u16, u64>) {
    let mut correct = 0;
    let mut errors = Vec::new();
    let mut codes = BTreeMap::new();
    for s in samples {
        *codes.entry(s.code).or_insert(0) += 1;
        let path = &paths[s.idx];
        let verdict = match (s.code, expect.get(path)) {
            (200, Some(e)) => e.check(&s.body),
            (200, None) => Err("no reference answer".to_owned()),
            (code, _) => Err(format!("HTTP {code}: {}", s.body)),
        };
        match verdict {
            Ok(()) => correct += 1,
            Err(e) if errors.len() < 5 => errors.push(format!("{path}: {e}")),
            Err(_) => {}
        }
    }
    (correct, errors, codes)
}

/// `perfbench load`.
pub fn run(args: &Args) -> Result<(), String> {
    let addr: SocketAddr = args
        .str("addr")?
        .parse()
        .map_err(|e| format!("--addr: {e}"))?;
    let conns: usize = args.num("conns")?;
    let warmup: usize = args.num("warmup")?;
    let seconds: f64 = args.num("seconds")?;
    let dir = args.str("dir")?;
    let paths = read_requests(&format!("{dir}/requests.txt"))?;
    let expect = read_expect(&format!("{dir}/expect.jsonl"))?;
    let raws: Vec<Vec<u8>> = paths.iter().map(|p| raw_request(p)).collect();
    let cursor = AtomicUsize::new(0);

    let warm_start = Instant::now();
    let (warm, _) = drive(addr, conns, &raws, &cursor, &|seq, _| seq >= warmup);
    let warmup_s = warm_start.elapsed().as_secs_f64();
    let (warm_correct, warm_errors, _) = check(&warm, &paths, &expect);

    let write = |name: &str, text: &str| {
        std::fs::write(format!("{dir}/{name}"), text).map_err(|e| format!("{dir}/{name}: {e}"))
    };
    write("metrics_before.txt", &scrape(addr, "/metrics")?)?;
    write("status_before.json", &scrape(addr, "/status")?)?;

    cursor.store(warmup, Ordering::SeqCst);
    let (cpu0, steal0, idle0) = cpu_times();
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let (timed, reconnects) = drive(addr, conns, &raws, &cursor, &|_, now| now >= deadline);
    let elapsed_s = t0.elapsed().as_secs_f64();
    let (cpu1, steal1, idle1) = cpu_times();

    write("metrics_after.txt", &scrape(addr, "/metrics")?)?;
    write("status_after.json", &scrape(addr, "/status")?)?;

    let (correct, mut errors, codes) = check(&timed, &paths, &expect);
    errors.extend(warm_errors);
    let jiffies = cpu1.saturating_sub(cpu0).max(1) as f64;
    let doc = Json::obj(vec![
        ("warmup_requests", Json::num_u(warm.len() as u64)),
        (
            "warmup_failed",
            Json::num_u((warm.len() as u64).saturating_sub(warm_correct)),
        ),
        ("warmup_s", Json::Num(warmup_s)),
        ("elapsed_s", Json::Num(elapsed_s)),
        ("attempted", Json::num_u(timed.len() as u64)),
        ("correct", Json::num_u(correct)),
        ("reconnects", Json::num_u(reconnects)),
        (
            "codes",
            Json::Obj(
                codes
                    .iter()
                    .map(|(c, n)| (c.to_string(), Json::num_u(*n)))
                    .collect(),
            ),
        ),
        (
            "errors",
            Json::Arr(errors.into_iter().map(Json::Str).collect()),
        ),
        (
            "steal_share",
            Json::Num(steal1.saturating_sub(steal0) as f64 / jiffies),
        ),
        (
            "busy_share",
            Json::Num(1.0 - idle1.saturating_sub(idle0) as f64 / jiffies),
        ),
        (
            "lat_us",
            Json::Arr(
                timed
                    .iter()
                    .map(|s| Json::Num(s.lat_ns as f64 / 1e3))
                    .collect(),
            ),
        ),
    ]);
    write("load.json", &doc.to_text())
}
