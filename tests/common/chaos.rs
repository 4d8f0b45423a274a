//! A TCP proxy that can freeze, for failover tests of the wire protocol.
//!
//! [`ChaosProxy`] sits between a client (or follower) and an upstream
//! server, relaying bytes in both directions. [`ChaosProxy::freeze`]
//! stops the upstream→client direction without closing anything: the
//! silent (non-RST) hang a wedged primary produces, detectable only by
//! heartbeat timeout. Requests always pass through, so the upstream
//! engine's state stays well-defined. Its self-tests live in
//! `tests/failover.rs`.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Relay chunk size; small enough that a freeze takes effect mid-reply.
const CHUNK: usize = 4096;
/// Poll interval for stop/freeze checks while a pump is idle.
const POLL: Duration = Duration::from_millis(25);

/// Shared knobs; one per proxy, read by every pump thread.
#[derive(Default)]
struct ChaosCtl {
    stop: AtomicBool,
    frozen: AtomicBool,
    /// Clones of both sides of every live relay, severed on shutdown.
    live: Mutex<Vec<TcpStream>>,
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
    pub fn spawn(upstream: &str) -> io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let ctl = Arc::new(ChaosCtl::default());
        let accept = {
            let ctl = Arc::clone(&ctl);
            let upstream = upstream.to_owned();
            std::thread::Builder::new()
                .name("igq-chaos-accept".into())
                .spawn(move || drop(accept_loop(&listener, &upstream, &ctl)))?
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

    /// Freeze (`true`) or thaw (`false`) relaying. Frozen connections
    /// stay open but carry nothing — the silent-hang failure mode.
    pub fn freeze(&self, frozen: bool) {
        self.ctl.frozen.store(frozen, Ordering::Release);
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
        let live = self.ctl.live.lock().unwrap_or_else(|e| e.into_inner());
        for s in live.iter() {
            let _ = s.shutdown(Shutdown::Both);
        }
        drop(live);
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

fn accept_loop(listener: &TcpListener, upstream: &str, ctl: &Arc<ChaosCtl>) -> io::Result<()> {
    loop {
        let (client, _) = listener.accept()?;
        if ctl.stop.load(Ordering::Acquire) {
            return Ok(());
        }
        let Ok(server) = TcpStream::connect(upstream) else {
            // Upstream down: refuse by dropping the client socket.
            continue;
        };
        let mut live = ctl.live.lock().unwrap_or_else(|e| e.into_inner());
        live.extend([client.try_clone()?, server.try_clone()?]);
        drop(live);
        // Requests always pass; replies stop while frozen.
        spawn_pump(client.try_clone()?, server.try_clone()?, ctl, false);
        spawn_pump(server, client, ctl, true);
    }
}

fn spawn_pump(from: TcpStream, to: TcpStream, ctl: &Arc<ChaosCtl>, freezable: bool) {
    let ctl = Arc::clone(ctl);
    let _ = std::thread::Builder::new()
        .name("igq-chaos-pump".into())
        .spawn(move || pump(from, to, &ctl, freezable));
}

/// Relays `from` → `to` until either side dies or the proxy stops;
/// `freezable` pumps (upstream→client) carry nothing while frozen.
fn pump(mut from: TcpStream, mut to: TcpStream, ctl: &ChaosCtl, freezable: bool) {
    // A short read timeout keeps the pump responsive to stop/freeze.
    let _ = from.set_read_timeout(Some(POLL));
    let mut buf = [0u8; CHUNK];
    loop {
        if ctl.stop.load(Ordering::Acquire) {
            break;
        }
        if freezable && ctl.frozen.load(Ordering::Acquire) {
            // Silent hang: leave bytes queued in the kernel, carry none.
            std::thread::sleep(POLL);
            continue;
        }
        let n = match from.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        };
        if to.write_all(&buf[..n]).is_err() {
            break;
        }
    }
    let _ = to.shutdown(Shutdown::Both);
    let _ = from.shutdown(Shutdown::Both);
}
