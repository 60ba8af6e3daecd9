//! The connection registry shared by the daemon's and the router's
//! accept loops.
//!
//! Every accepted connection is served on its own thread. The registry
//! keeps one clone of each *live* socket, and only so that drain can
//! shut its read side down. When a connection thread exits — returning
//! or unwinding — it shuts its socket down in both directions (reaching
//! the socket past every clone, so the client sees EOF instead of
//! waiting for an answer that will never come) and deregisters, which
//! closes the registry's clone. The accept loop joins finished threads
//! at each accept. A long-lived front-end therefore holds descriptors
//! and thread handles only for its live connections, not for every
//! connection it ever served.

use std::collections::BTreeMap;
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// Live sockets by connection id, plus the gauge mirroring their count.
struct Live {
    streams: Mutex<BTreeMap<u64, TcpStream>>,
    gauge: soi_obs::Gauge,
}

impl Live {
    fn lock(&self) -> MutexGuard<'_, BTreeMap<u64, TcpStream>> {
        self.streams.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Deregisters one connection when its thread exits, by return or by
/// unwinding.
struct Registration {
    live: Arc<Live>,
    id: u64,
}

impl Drop for Registration {
    fn drop(&mut self) {
        let mut streams = self.live.lock();
        if let Some(stream) = streams.remove(&self.id) {
            let _ = stream.shutdown(Shutdown::Both);
        }
        self.live.gauge.set(streams.len() as f64);
    }
}

/// The connections of one accept loop: the live sockets (shared with
/// their threads) and the threads' join handles (owned by the loop).
pub(crate) struct Connections {
    live: Arc<Live>,
    threads: Vec<JoinHandle<()>>,
    next_id: u64,
}

impl Connections {
    /// An empty registry whose live-connection count is mirrored into
    /// `gauge`.
    pub(crate) fn new(gauge: soi_obs::Gauge) -> Self {
        gauge.set(0.0);
        Connections {
            live: Arc::new(Live {
                streams: Mutex::new(BTreeMap::new()),
                gauge,
            }),
            threads: Vec::new(),
            next_id: 0,
        }
    }

    /// Joins the threads of connections that have closed, registers
    /// `stream`, and serves it with `serve` on a thread of its own.
    pub(crate) fn spawn<F>(&mut self, stream: TcpStream, serve: F)
    where
        F: FnOnce(TcpStream) + Send + 'static,
    {
        self.reap();
        // Without a clone drain could not reach the socket; dropping the
        // stream closes it, so the client sees EOF, not a hang.
        let Ok(clone) = stream.try_clone() else {
            return;
        };
        let id = self.next_id;
        self.next_id += 1;
        {
            let mut streams = self.live.lock();
            streams.insert(id, clone);
            self.live.gauge.set(streams.len() as f64);
        }
        let registration = Registration {
            live: Arc::clone(&self.live),
            id,
        };
        self.threads.push(std::thread::spawn(move || {
            let _registration = registration;
            serve(stream);
        }));
    }

    /// Joins every connection thread that has already finished.
    fn reap(&mut self) {
        let (finished, running): (Vec<_>, Vec<_>) = std::mem::take(&mut self.threads)
            .into_iter()
            .partition(JoinHandle::is_finished);
        self.threads = running;
        for thread in finished {
            let _ = thread.join();
        }
    }

    /// Connections currently registered.
    #[cfg(test)]
    fn live(&self) -> usize {
        self.live.lock().len()
    }

    /// Shuts the read side of every live connection down, so each
    /// thread sees EOF once its in-flight request is answered, and joins
    /// every connection thread.
    pub(crate) fn drain(self) {
        for stream in self.live.lock().values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        for thread in self.threads {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpListener;
    use std::time::{Duration, Instant};

    /// Echoes lines until EOF.
    fn echo(stream: TcpStream) {
        let Ok(mut writer) = stream.try_clone() else {
            return;
        };
        for line in BufReader::new(stream).lines() {
            let Ok(line) = line else {
                return;
            };
            if writer.write_all(format!("{line}\n").as_bytes()).is_err() {
                return;
            }
        }
    }

    fn wait_until(cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < deadline, "condition not reached in 10 s");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn closed_connections_deregister_and_are_joined_at_the_next_accept() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut conns = Connections::new(soi_obs::gauge("test.connections_live"));
        let mut clients = Vec::new();
        for _ in 0..8 {
            let mut client = TcpStream::connect(addr).expect("connect");
            let (stream, _) = listener.accept().expect("accept");
            conns.spawn(stream, echo);
            client.write_all(b"ping\n").expect("send");
            let mut reader = BufReader::new(client);
            let mut line = String::new();
            reader.read_line(&mut line).expect("echo");
            assert_eq!(line, "ping\n");
            clients.push(reader);
        }
        assert_eq!(conns.live(), 8);
        drop(clients);
        // Every client closed its socket, so every thread saw EOF,
        // deregistered and ran to its end.
        wait_until(|| conns.live() == 0);
        wait_until(|| conns.threads.iter().all(JoinHandle::is_finished));
        assert_eq!(conns.threads.len(), 8, "nothing reaped before an accept");
        let client = TcpStream::connect(addr).expect("connect");
        let (stream, _) = listener.accept().expect("accept");
        conns.spawn(stream, echo);
        assert_eq!(conns.threads.len(), 1, "finished threads joined at accept");
        drop(client);
        conns.drain();
    }

    #[test]
    fn drain_unblocks_idle_readers_and_unwinding_threads_close_their_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut conns = Connections::new(soi_obs::gauge("test.connections_live_drain"));
        // A thread that dies by panicking still shuts its socket down:
        // the client reads EOF rather than blocking forever.
        let mut doomed = TcpStream::connect(addr).expect("connect");
        let (stream, _) = listener.accept().expect("accept");
        conns.spawn(stream, |_stream| panic!("connection thread dies"));
        let mut buf = Vec::new();
        doomed.read_to_end(&mut buf).expect("EOF after the panic");
        wait_until(|| conns.live() == 0);
        // An idle client connection blocks its thread in a read; drain
        // ends it and joins.
        let idle = TcpStream::connect(addr).expect("connect");
        let (stream, _) = listener.accept().expect("accept");
        conns.spawn(stream, echo);
        assert_eq!(conns.live(), 1);
        conns.drain();
        drop(idle);
    }
}
