//! A chaos TCP proxy for fault-injection testing of the wire protocol.
//!
//! [`ChaosProxy`] sits between a client (or follower) and an upstream
//! `igq-server`, relaying bytes in both directions while injecting
//! network faults on command:
//!
//! * **freeze** — stop relaying without closing anything: the silent
//!   (non-RST) hang a wedged primary produces, detectable only by
//!   heartbeat timeout;
//! * **delay** — sleep before forwarding each upstream chunk, simulating
//!   a congested or lossy path;
//! * **garble** — flip bytes in upstream replies with a seeded,
//!   deterministic coin, corrupting frames mid-stream;
//! * **truncate** — forward only a prefix of the next upstream chunk and
//!   then tear the connection down: a reply cut off mid-frame;
//! * **kill** — shut down every live relayed connection at once.
//!
//! All knobs are runtime atomics: tests and `bench_robustness` flip them
//! while traffic is in flight. Faults apply to the upstream→client
//! direction (replies and replication deltas — the direction that can
//! corrupt a consumer); requests pass through untouched so the upstream
//! engine's state stays well-defined. Byte counters in [`ChaosStats`]
//! record what was actually injected.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Sentinel for "truncation disarmed" in the atomic knob.
const TRUNCATE_OFF: u64 = u64::MAX;
/// Relay chunk size; small enough that knobs take effect mid-reply.
const CHUNK: usize = 4096;
/// Poll interval for stop/freeze checks while a pump is idle.
const POLL: Duration = Duration::from_millis(25);

/// What the proxy has injected so far (monotonic counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Connections accepted and relayed.
    pub connections: u64,
    /// Upstream→client payload bytes forwarded (after truncation).
    pub bytes_forwarded: u64,
    /// Bytes whose value was garbled before forwarding.
    pub garbled_bytes: u64,
    /// Connections torn down mid-reply by truncation.
    pub truncated: u64,
    /// Connections killed by [`ChaosProxy::kill_connections`].
    pub killed: u64,
}

/// Shared knobs + counters; one per proxy, read by every pump thread.
struct ChaosCtl {
    stop: AtomicBool,
    frozen: AtomicBool,
    delay_ms: AtomicU64,
    garble_ppm: AtomicU64,
    rng: AtomicU64,
    truncate_next: AtomicU64,
    connections: AtomicU64,
    bytes_forwarded: AtomicU64,
    garbled_bytes: AtomicU64,
    truncated: AtomicU64,
    killed: AtomicU64,
    /// Clones of both sides of every live relay, for `kill_connections`.
    live: Mutex<Vec<TcpStream>>,
}

impl ChaosCtl {
    fn fresh() -> ChaosCtl {
        ChaosCtl {
            stop: AtomicBool::new(false),
            frozen: AtomicBool::new(false),
            delay_ms: AtomicU64::new(0),
            garble_ppm: AtomicU64::new(0),
            rng: AtomicU64::new(0x9e37_79b9_7f4a_7c15),
            truncate_next: AtomicU64::new(TRUNCATE_OFF),
            connections: AtomicU64::new(0),
            bytes_forwarded: AtomicU64::new(0),
            garbled_bytes: AtomicU64::new(0),
            truncated: AtomicU64::new(0),
            killed: AtomicU64::new(0),
            live: Mutex::new(Vec::new()),
        }
    }

    /// One xorshift64* step over the shared state; deterministic for a
    /// fixed seed and byte order because pumps serialize on the atomic.
    fn next_rand(&self) -> u64 {
        let mut x = self.rng.load(Ordering::Relaxed);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng.store(x, Ordering::Relaxed);
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn drop_closed(&self) {
        let mut live = self.live.lock().unwrap_or_else(|e| e.into_inner());
        live.retain(|s| s.take_error().is_ok());
        // Bound growth even when take_error stays Ok on closed sockets.
        let excess = live.len().saturating_sub(64);
        if excess > 0 {
            live.drain(..excess);
        }
    }
}

/// The proxy itself: a listener on an ephemeral localhost port relaying
/// to a fixed upstream. Dropping it stops the accept loop and severs
/// every relay.
pub struct ChaosProxy {
    addr: SocketAddr,
    ctl: Arc<ChaosCtl>,
    accept: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Binds `127.0.0.1:0` and starts relaying to `upstream`.
    pub fn spawn(upstream: &str) -> std::io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let ctl = Arc::new(ChaosCtl::fresh());
        let accept = {
            let ctl = Arc::clone(&ctl);
            let upstream = upstream.to_owned();
            std::thread::Builder::new()
                .name("igq-chaos-accept".into())
                .spawn(move || accept_loop(&listener, &upstream, &ctl))?
        };
        Ok(ChaosProxy {
            addr,
            ctl,
            accept: Some(accept),
        })
    }

    /// The address clients should dial instead of the upstream.
    pub fn addr(&self) -> String {
        self.addr.to_string()
    }

    /// Seeds the garble/fault coin for reproducible chaos runs.
    pub fn seed(&self, seed: u64) {
        // A zero state would wedge xorshift; displace like the default.
        self.ctl.rng.store(
            seed.max(1).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1,
            Ordering::Relaxed,
        );
    }

    /// Freeze (`true`) or thaw (`false`) relaying. Frozen connections
    /// stay open but carry nothing — the silent-hang failure mode.
    pub fn freeze(&self, frozen: bool) {
        self.ctl.frozen.store(frozen, Ordering::Release);
    }

    /// Delay each forwarded upstream chunk by `delay` (`None` disables).
    pub fn set_delay(&self, delay: Option<Duration>) {
        let ms = delay.map_or(0, |d| d.as_millis() as u64);
        self.ctl.delay_ms.store(ms, Ordering::Relaxed);
    }

    /// Garble roughly `ppm` per million forwarded upstream bytes
    /// (0 disables). Deterministic under [`seed`](ChaosProxy::seed).
    pub fn garble(&self, ppm: u64) {
        self.ctl
            .garble_ppm
            .store(ppm.min(1_000_000), Ordering::Relaxed);
    }

    /// Arms a one-shot truncation: the next upstream chunk forwards at
    /// most `bytes` bytes, then the connection is torn down mid-reply.
    pub fn truncate_next(&self, bytes: u64) {
        self.ctl.truncate_next.store(bytes, Ordering::Relaxed);
    }

    /// Shuts down every live relayed connection (both directions).
    pub fn kill_connections(&self) {
        let live = self.ctl.live.lock().unwrap_or_else(|e| e.into_inner());
        let mut killed = 0;
        for s in live.iter() {
            if s.shutdown(Shutdown::Both).is_ok() {
                killed += 1;
            }
        }
        // Two stream clones per relay (client + upstream side).
        self.ctl.killed.fetch_add(killed / 2, Ordering::Relaxed);
    }

    /// Clears every armed fault: delay, garble, truncation, freeze.
    pub fn heal(&self) {
        self.ctl.frozen.store(false, Ordering::Release);
        self.ctl.delay_ms.store(0, Ordering::Relaxed);
        self.ctl.garble_ppm.store(0, Ordering::Relaxed);
        self.ctl
            .truncate_next
            .store(TRUNCATE_OFF, Ordering::Relaxed);
    }

    /// What has been injected so far.
    pub fn stats(&self) -> ChaosStats {
        ChaosStats {
            connections: self.ctl.connections.load(Ordering::Relaxed),
            bytes_forwarded: self.ctl.bytes_forwarded.load(Ordering::Relaxed),
            garbled_bytes: self.ctl.garbled_bytes.load(Ordering::Relaxed),
            truncated: self.ctl.truncated.load(Ordering::Relaxed),
            killed: self.ctl.killed.load(Ordering::Relaxed),
        }
    }

    /// Stops the accept loop, severs all relays, and joins. Also runs on
    /// drop.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.ctl.stop.store(true, Ordering::Release);
        // Unblock accept() by dialing ourselves; ignore failures (the
        // listener may already be gone).
        let _ = TcpStream::connect(self.addr);
        self.kill_connections();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

impl std::fmt::Debug for ChaosProxy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosProxy")
            .field("addr", &self.addr)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

fn accept_loop(listener: &TcpListener, upstream: &str, ctl: &Arc<ChaosCtl>) {
    loop {
        let Ok((client, _)) = listener.accept() else {
            return;
        };
        if ctl.stop.load(Ordering::Acquire) {
            return;
        }
        let Ok(server) = TcpStream::connect(upstream) else {
            // Upstream down: refuse by dropping the client socket.
            continue;
        };
        ctl.connections.fetch_add(1, Ordering::Relaxed);
        ctl.drop_closed();
        {
            let mut live = ctl.live.lock().unwrap_or_else(|e| e.into_inner());
            if let (Ok(c), Ok(s)) = (client.try_clone(), server.try_clone()) {
                live.push(c);
                live.push(s);
            }
        }
        // Requests pass through clean; replies go through the fault path.
        spawn_pump(client.try_clone(), server.try_clone(), ctl, false);
        spawn_pump(Ok(server), Ok(client), ctl, true);
    }
}

fn spawn_pump(
    from: std::io::Result<TcpStream>,
    to: std::io::Result<TcpStream>,
    ctl: &Arc<ChaosCtl>,
    faulty: bool,
) {
    let (Ok(from), Ok(to)) = (from, to) else {
        return;
    };
    let ctl = Arc::clone(ctl);
    let name = if faulty {
        "igq-chaos-reply"
    } else {
        "igq-chaos-req"
    };
    let _ = std::thread::Builder::new()
        .name(name.into())
        .spawn(move || pump(from, to, &ctl, faulty));
}

/// Relays `from` → `to` until either side dies or the proxy stops.
/// `faulty` pumps (upstream→client) apply freeze/delay/garble/truncate.
fn pump(mut from: TcpStream, mut to: TcpStream, ctl: &ChaosCtl, faulty: bool) {
    // A short read timeout keeps the pump responsive to stop/freeze.
    let _ = from.set_read_timeout(Some(POLL));
    let mut buf = [0u8; CHUNK];
    loop {
        if ctl.stop.load(Ordering::Acquire) {
            break;
        }
        if faulty && ctl.frozen.load(Ordering::Acquire) {
            // Silent hang: leave bytes queued in the kernel, carry none.
            std::thread::sleep(POLL);
            continue;
        }
        let n = match from.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        };
        let mut chunk = &mut buf[..n];
        if faulty {
            let delay = ctl.delay_ms.load(Ordering::Relaxed);
            if delay > 0 {
                std::thread::sleep(Duration::from_millis(delay));
            }
            let ppm = ctl.garble_ppm.load(Ordering::Relaxed);
            if ppm > 0 {
                for b in chunk.iter_mut() {
                    if ctl.next_rand() % 1_000_000 < ppm {
                        *b ^= 0xA5;
                        ctl.garbled_bytes.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            // One-shot truncation: claim the armed value atomically so
            // exactly one chunk (on one connection) is cut.
            let armed = ctl
                .truncate_next
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                    (v != TRUNCATE_OFF).then_some(TRUNCATE_OFF)
                })
                .ok();
            if let Some(cut) = armed {
                let keep = (cut as usize).min(chunk.len());
                chunk = &mut chunk[..keep];
                ctl.bytes_forwarded
                    .fetch_add(keep as u64, Ordering::Relaxed);
                let _ = to.write_all(chunk);
                ctl.truncated.fetch_add(1, Ordering::Relaxed);
                let _ = to.shutdown(Shutdown::Both);
                let _ = from.shutdown(Shutdown::Both);
                break;
            }
        }
        // Counted before the write: a client that already holds these
        // bytes must never read a counter that lacks them.
        if faulty {
            ctl.bytes_forwarded
                .fetch_add(chunk.len() as u64, Ordering::Relaxed);
        }
        if to.write_all(chunk).is_err() {
            break;
        }
    }
    let _ = to.shutdown(Shutdown::Both);
    let _ = from.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial upstream echoing every byte back, doubled marker-free.
    fn echo_upstream() -> (String, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind echo");
        let addr = listener.local_addr().expect("echo addr").to_string();
        let h = std::thread::spawn(move || {
            while let Ok((mut s, _)) = listener.accept() {
                let _ = std::thread::spawn(move || {
                    let mut buf = [0u8; 1024];
                    while let Ok(n) = s.read(&mut buf) {
                        if n == 0 || s.write_all(&buf[..n]).is_err() {
                            break;
                        }
                    }
                });
            }
        });
        (addr, h)
    }

    fn roundtrip(addr: &str, payload: &[u8]) -> std::io::Result<Vec<u8>> {
        let mut s = TcpStream::connect(addr)?;
        s.set_read_timeout(Some(Duration::from_secs(2)))?;
        s.write_all(payload)?;
        let mut got = vec![0u8; payload.len()];
        s.read_exact(&mut got)?;
        Ok(got)
    }

    #[test]
    fn healthy_proxy_is_transparent() {
        let (upstream, _h) = echo_upstream();
        let proxy = ChaosProxy::spawn(&upstream).expect("spawn proxy");
        let got = roundtrip(&proxy.addr(), b"hello chaos").expect("echo");
        assert_eq!(got, b"hello chaos");
        let stats = proxy.stats();
        assert_eq!(stats.connections, 1);
        assert_eq!(stats.bytes_forwarded, 11);
        assert_eq!(stats.garbled_bytes, 0);
    }

    #[test]
    fn freeze_hangs_silently_and_thaw_recovers() {
        let (upstream, _h) = echo_upstream();
        let proxy = ChaosProxy::spawn(&upstream).expect("spawn proxy");
        proxy.freeze(true);
        let mut s = TcpStream::connect(proxy.addr()).expect("dial");
        s.set_read_timeout(Some(Duration::from_millis(200)))
            .expect("timeout");
        s.write_all(b"ping").expect("write");
        let mut buf = [0u8; 4];
        // Frozen: the read times out, the connection does NOT reset.
        let err = s.read_exact(&mut buf).expect_err("must hang");
        assert!(
            matches!(
                err.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            "unexpected error kind: {err:?}"
        );
        proxy.freeze(false);
        s.set_read_timeout(Some(Duration::from_secs(2)))
            .expect("timeout");
        s.read_exact(&mut buf).expect("thawed reply");
        assert_eq!(&buf, b"ping");
    }

    #[test]
    fn garble_flips_bytes_deterministically() {
        let (upstream, _h) = echo_upstream();
        let proxy = ChaosProxy::spawn(&upstream).expect("spawn proxy");
        proxy.seed(42);
        proxy.garble(500_000); // ~half of all bytes
        let payload = vec![0u8; 256];
        let got = roundtrip(&proxy.addr(), &payload).expect("echo");
        let flipped = got.iter().filter(|&&b| b != 0).count();
        assert!(flipped > 0, "garble injected nothing");
        assert_eq!(proxy.stats().garbled_bytes, flipped as u64);
    }

    #[test]
    fn truncate_cuts_the_reply_and_kills_the_connection() {
        let (upstream, _h) = echo_upstream();
        let proxy = ChaosProxy::spawn(&upstream).expect("spawn proxy");
        proxy.truncate_next(3);
        let mut s = TcpStream::connect(proxy.addr()).expect("dial");
        s.set_read_timeout(Some(Duration::from_secs(2)))
            .expect("timeout");
        s.write_all(b"truncate me").expect("write");
        let mut got = Vec::new();
        let _ = s.read_to_end(&mut got);
        assert_eq!(got, b"tru");
        assert_eq!(proxy.stats().truncated, 1);
    }

    #[test]
    fn kill_connections_severs_live_relays() {
        let (upstream, _h) = echo_upstream();
        let proxy = ChaosProxy::spawn(&upstream).expect("spawn proxy");
        let mut s = TcpStream::connect(proxy.addr()).expect("dial");
        s.set_read_timeout(Some(Duration::from_secs(2)))
            .expect("timeout");
        s.write_all(b"warm").expect("write");
        let mut buf = [0u8; 4];
        s.read_exact(&mut buf).expect("echo");
        proxy.kill_connections();
        s.write_all(b"dead").ok();
        let mut got = Vec::new();
        // The relay is gone: either an error or EOF, never more payload.
        let _ = s.read_to_end(&mut got);
        assert!(got.is_empty(), "killed relay still delivered {got:?}");
    }

    #[test]
    fn heal_clears_every_armed_fault() {
        let (upstream, _h) = echo_upstream();
        let proxy = ChaosProxy::spawn(&upstream).expect("spawn proxy");
        proxy.freeze(true);
        proxy.garble(1_000_000);
        proxy.truncate_next(0);
        proxy.set_delay(Some(Duration::from_secs(10)));
        proxy.heal();
        let got = roundtrip(&proxy.addr(), b"clean again").expect("echo");
        assert_eq!(got, b"clean again");
        assert_eq!(proxy.stats().garbled_bytes, 0);
    }
}
