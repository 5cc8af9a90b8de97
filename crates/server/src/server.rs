//! The TCP front-end: a scoped-thread worker pool over one listener,
//! with a clean in-band shutdown.
//!
//! No async runtime: each of [`Server::run`]'s `workers` scoped threads
//! accepts on the shared [`TcpListener`] and speaks the
//! [`crate::protocol`] frame loop with its peer until the peer
//! disconnects. Connections waiting for a free worker sit in the
//! listener's kernel backlog. `SHUTDOWN` answers `BYE`, raises the stop
//! flag, and wakes every worker blocked in `accept` with one throwaway
//! connection each; `run` returns once every worker has seen the flag.

use crate::protocol::{self, Request, Response};
use crate::service::ResolveService;
use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};

/// A bound-but-not-yet-running resolution server. See the
/// [module docs](self).
pub struct Server<'d> {
    service: ResolveService<'d>,
    listener: TcpListener,
    workers: usize,
    stop: AtomicBool,
}

impl<'d> Server<'d> {
    /// Binds `addr` (use port 0 for an ephemeral port) with a pool of
    /// `workers` connection threads (clamped to ≥ 1).
    pub fn bind(
        addr: impl ToSocketAddrs,
        service: ResolveService<'d>,
        workers: usize,
    ) -> io::Result<Self> {
        Ok(Self {
            service,
            listener: TcpListener::bind(addr)?,
            workers: workers.max(1),
            stop: AtomicBool::new(false),
        })
    }

    /// The bound address (the ephemeral port after `bind(":0")`).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared service, e.g. to preload the corpus before `run`.
    pub fn service(&self) -> &ResolveService<'d> {
        &self.service
    }

    /// Stops the workers: raises the flag, then opens one throwaway
    /// connection per worker, so each one's next `accept` returns and it
    /// observes the flag without needing a timeout.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Ok(addr) = self.listener.local_addr() {
            for _ in 0..self.workers {
                drop(TcpStream::connect(addr));
            }
        }
    }

    /// A guard that calls [`Server::shutdown`] when it is dropped, also
    /// while a panic unwinds. Taken in the scope whose thread runs
    /// [`Server::run`], it lets the scope join the server whatever
    /// happens to the caller's side — a failed assertion fails instead of
    /// waiting on a server nobody stops.
    pub fn stop_on_drop(&self) -> StopOnDrop<'_, 'd> {
        StopOnDrop(self)
    }

    /// Serves until [`Server::shutdown`] is called (usually via the
    /// `SHUTDOWN` request). Returns once every worker has finished its
    /// connection and stopped accepting.
    pub fn run(&self) -> io::Result<()> {
        std::thread::scope(|scope| {
            for _ in 0..self.workers {
                scope.spawn(|| {
                    for incoming in self.listener.incoming() {
                        if self.stop.load(Ordering::SeqCst) {
                            break;
                        }
                        // A failed accept is transient; keep serving.
                        if let Ok(stream) = incoming {
                            self.handle(stream);
                        }
                    }
                });
            }
        });
        Ok(())
    }

    /// One connection's frame loop. Service-level rejections (bad
    /// entity id, invalid ingest batch, a poisoned service) answer `ERR`
    /// and keep the connection; protocol-level decode errors answer
    /// `ERR` and drop it (framing is no longer trustworthy).
    fn handle(&self, stream: TcpStream) {
        let mut reader = BufReader::new(&stream);
        let mut writer = BufWriter::new(&stream);
        loop {
            let request = match protocol::read_request(&mut reader) {
                Ok(Some(request)) => request,
                // Clean EOF between frames: the client hung up.
                Ok(None) => return,
                Err(_) => {
                    drop(protocol::write_response(
                        &mut writer,
                        &Response::Err("malformed request".into()),
                    ));
                    return;
                }
            };
            let response = match request {
                Request::Resolve(entity) => match self.service.resolve(entity) {
                    Ok(reply) => Response::Resolved(reply),
                    Err(msg) => Response::Err(msg.into()),
                },
                Request::Ingest(ids) => match self.service.ingest(&ids) {
                    Ok(reply) => Response::Ingested(reply),
                    Err(err) => Response::Err(err.message().into()),
                },
                Request::Stats => match self.service.stats() {
                    Ok(reply) => Response::Stats(reply),
                    Err(msg) => Response::Err(msg.into()),
                },
                Request::Shutdown => {
                    drop(protocol::write_response(&mut writer, &Response::Bye));
                    self.shutdown();
                    return;
                }
            };
            if protocol::write_response(&mut writer, &response).is_err() {
                return;
            }
        }
    }
}

/// Stops its [`Server`] when dropped: see [`Server::stop_on_drop`].
#[must_use = "the server stops when the guard is dropped"]
pub struct StopOnDrop<'s, 'd>(&'s Server<'d>);

impl Drop for StopOnDrop<'_, '_> {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use minoan_blocking::ErMode;
    use minoan_datagen::{generate, profiles};
    use minoan_metablocking::{IncrementalSession, Pruning, WeightingScheme};
    use minoan_rdf::EntityId;

    const SCHEME: WeightingScheme = WeightingScheme::Js;
    const PRUNING: Pruning = Pruning::Wnp { reciprocal: false };

    #[test]
    fn end_to_end_resolve_ingest_stats_shutdown() {
        let g = generate(&profiles::center_dense(60, 3));
        let service = ResolveService::new(&g.dataset, ErMode::CleanClean, SCHEME, PRUNING, 64);
        // Three of the four workers sit idle in `accept` until SHUTDOWN.
        let server = Server::bind("127.0.0.1:0", service, 4).expect("bind ephemeral port");
        let addr = server.local_addr().expect("bound address");
        std::thread::scope(|s| {
            let running = s.spawn(|| server.run());
            let _stop = server.stop_on_drop();
            let mut client = Client::connect(addr).expect("connect to server");
            let ids: Vec<u32> = (0..g.dataset.len() as u32).collect();

            let ingested = client.ingest(&ids[..30]).expect("valid batch");
            assert_eq!(ingested.version, 1);
            assert_eq!(ingested.arrived, 30);

            let reply = client.resolve(7).expect("in-range resolve");
            assert_eq!(reply.version, 1);
            let mut reference = IncrementalSession::new(&g.dataset, ErMode::CleanClean);
            reference.scheme(SCHEME).pruning(PRUNING);
            let batch: Vec<EntityId> = ids[..30].iter().map(|&e| EntityId(e)).collect();
            reference.ingest(&batch);
            let want = reference.resolve_entity(EntityId(7));
            assert_eq!(reply.weighted_pairs(), want.matches);

            // Same entity again: served from cache, identical answer.
            let again = client.resolve(7).expect("repeat resolve");
            assert_eq!(again, reply);

            let stats = client.stats().expect("stats");
            assert_eq!(stats.resolves, 2);
            assert_eq!(stats.cache_hits, 1);
            assert_eq!(stats.ingests, 1);
            assert_eq!(stats.num_arrived, 30);
            assert_eq!(stats.version, 1);

            client.shutdown().expect("clean shutdown");
            running
                .join()
                .expect("server thread exits")
                .expect("run returns ok");
        });
    }

    #[test]
    fn service_errors_keep_the_connection_usable() {
        let g = generate(&profiles::center_dense(30, 11));
        let service = ResolveService::new(&g.dataset, ErMode::CleanClean, SCHEME, PRUNING, 8);
        let server = Server::bind("127.0.0.1:0", service, 1).expect("bind ephemeral port");
        let addr = server.local_addr().expect("bound address");
        std::thread::scope(|s| {
            let running = s.spawn(|| server.run());
            let _stop = server.stop_on_drop();
            let mut client = Client::connect(addr).expect("connect to server");
            let out_of_range = g.dataset.len() as u32;
            assert!(client.resolve(out_of_range).is_err());
            assert!(client.ingest(&[0, 0]).is_err());
            // The connection survived both rejections.
            let stats = client.stats().expect("stats after errors");
            assert_eq!(stats.ingests, 0);
            assert_eq!(stats.num_arrived, 0);
            client.shutdown().expect("clean shutdown");
            running
                .join()
                .expect("server thread exits")
                .expect("run returns ok");
        });
    }
}
