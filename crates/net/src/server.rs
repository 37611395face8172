//! A small threaded TCP service loop.
//!
//! [`serve`] binds a listener and runs an accept loop on a background
//! thread, handing every inbound connection (already wrapped in a
//! [`FramedStream`]) to a caller-supplied session handler on its own
//! thread — the substrate the sweep-farm coordinator builds its
//! request/response session loop on. The returned [`ServerHandle`] owns a
//! stop flag that both the accept loop and the handlers observe, so a
//! service can drain politely (e.g. answer the next poll with `Shutdown`)
//! instead of vanishing mid-conversation.

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::FramedStream;

/// A running [`serve`] loop: its bound address, stop flag and accept
/// thread.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    /// Set once the accept loop is known to be past its blocking
    /// `accept` (woken, or never able to block again), so it can be joined.
    woken: AtomicBool,
    accept_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with a `:0` ephemeral-port bind).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared stop flag (the same one handlers receive).
    pub fn stop_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Signals the accept loop and all session handlers to wind down, and
    /// wakes the accept loop out of its blocking `accept` with one
    /// connection to the bound address (loopback for an unspecified bind
    /// such as `0.0.0.0`). Sessions blocked on a read finish when their
    /// peer disconnects.
    pub fn stop(&self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake.ip() {
                IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        match TcpStream::connect_timeout(&wake, Duration::from_secs(1)) {
            // Refused: the listener is already gone with its loop.
            Err(e) if e.kind() != std::io::ErrorKind::ConnectionRefused => {}
            _ => self.woken.store(true, Ordering::SeqCst),
        }
    }

    /// Stops (if not already stopped) and joins the accept thread.
    /// Session threads are detached; they exit when their connection
    /// closes or their handler observes the stop flag.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
        // An accept loop the wake-up could not reach is left detached
        // rather than joined forever.
        if let Some(t) = self.accept_thread.take().filter(|_| self.woken.load(Ordering::SeqCst)) {
            let _ = t.join();
        }
    }
}

/// Binds `addr` (e.g. `"127.0.0.1:0"`) and serves every inbound
/// connection with `handler` on a dedicated thread.
///
/// The handler receives the framed connection, the peer address and the
/// shared stop flag; it owns the session for the connection's lifetime.
///
/// # Errors
///
/// Propagates the bind failure.
pub fn serve<H>(addr: &str, handler: H) -> std::io::Result<ServerHandle>
where
    H: Fn(FramedStream, SocketAddr, &AtomicBool) + Send + Sync + 'static,
{
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let loop_stop = Arc::clone(&stop);
    let handler = Arc::new(handler);
    let accept_thread = std::thread::spawn(move || {
        // `accept` blocks; `ServerHandle::stop` wakes it with a connection
        // of its own, which the flag check below turns away.
        while let Ok((sock, peer)) = listener.accept() {
            if loop_stop.load(Ordering::SeqCst) {
                break;
            }
            let handler = Arc::clone(&handler);
            let session_stop = Arc::clone(&loop_stop);
            std::thread::spawn(move || {
                handler(FramedStream::new(sock), peer, &session_stop);
            });
        }
    });
    Ok(ServerHandle {
        addr: local,
        stop,
        woken: AtomicBool::new(false),
        accept_thread: Some(accept_thread),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Message;
    use std::net::TcpStream;

    #[test]
    fn serves_concurrent_echo_sessions() {
        let handle = serve("127.0.0.1:0", |mut s, _peer, _stop| {
            while let Ok(msg) = s.recv() {
                if s.send(&msg).is_err() {
                    break;
                }
            }
        })
        .unwrap();
        let addr = handle.local_addr();
        let clients: Vec<_> = (0..3u32)
            .map(|id| {
                std::thread::spawn(move || {
                    let mut s = FramedStream::new(TcpStream::connect(addr).unwrap());
                    for i in 0..5 {
                        s.send(&Message::Hello { agent_id: id * 100 + i }).unwrap();
                        assert_eq!(s.recv().unwrap(), Message::Hello { agent_id: id * 100 + i });
                    }
                })
            })
            .collect();
        for c in clients {
            c.join().unwrap();
        }
        handle.shutdown();
    }

    #[test]
    fn stop_flag_reaches_sessions() {
        let handle = serve("127.0.0.1:0", |mut s, _peer, stop| {
            while let Ok(msg) = s.recv() {
                let reply =
                    if stop.load(Ordering::SeqCst) { Message::Shutdown } else { msg.clone() };
                if s.send(&reply).is_err() {
                    break;
                }
            }
        })
        .unwrap();
        let mut s = FramedStream::new(TcpStream::connect(handle.local_addr()).unwrap());
        s.send(&Message::Done).unwrap();
        assert_eq!(s.recv().unwrap(), Message::Done);
        handle.stop();
        s.send(&Message::Done).unwrap();
        assert_eq!(s.recv().unwrap(), Message::Shutdown);
        handle.shutdown();
    }

    #[test]
    fn stop_wakes_a_blocked_accept_on_an_unspecified_bind() {
        let handle = serve("0.0.0.0:0", |_s, _peer, _stop| {}).unwrap();
        let port = handle.local_addr().port();
        let start = std::time::Instant::now();
        handle.shutdown();
        assert!(start.elapsed() < Duration::from_secs(1), "the accept loop was not woken");
        // The listener went with its loop.
        assert!(TcpStream::connect(("127.0.0.1", port)).is_err());
    }
}
