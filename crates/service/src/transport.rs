//! Client-side transports: how encoded request frames reach a
//! [`Service`](crate::service::Service) and responses come back.
//!
//! * [`Loopback`] — in-process: frames go through the real encode →
//!   decode → queue → worker → encode → decode path, minus sockets.
//!   This is what the equivalence suite runs, so wire-codec bugs fail
//!   tests even on machines where binding a TCP port is not possible.
//! * [`PipelinedTcp`] + [`TcpServer`] — the same frames over real
//!   sockets, with a bounded pipeline window per connection
//!   (backpressure: a client can have at most `window` requests in
//!   flight; the server answers in order). A window of 1 is strict
//!   request/response.

use crate::proto::{read_frame, write_frame, FrameError, MAX_FRAME};
use crate::service::{bad_frame, serve_frame, Service};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;

/// A blocking request/response channel carrying encoded frame bodies.
pub trait Transport {
    /// Sends one request body, returns the matching response body.
    ///
    /// # Errors
    ///
    /// Transport-layer failures (socket errors, server gone). Store
    /// errors are *successful* transports of an error response.
    fn call(&mut self, body: &[u8]) -> io::Result<Vec<u8>>;
}

/// In-process transport bound to a service. Cloning shares the service.
#[derive(Clone)]
pub struct Loopback {
    service: Arc<Service>,
}

impl Loopback {
    /// A loopback onto `service`.
    pub fn new(service: Arc<Service>) -> Loopback {
        Loopback { service }
    }
}

impl Transport for Loopback {
    fn call(&mut self, body: &[u8]) -> io::Result<Vec<u8>> {
        // Same frame-size validation a socket server performs.
        if body.len() > MAX_FRAME {
            return Ok(bad_frame(&FrameError::Oversized(body.len())).encode());
        }
        Ok(serve_frame(&self.service, body))
    }
}

/// A TCP server feeding one [`Service`]: an acceptor thread spawns one
/// handler thread per connection; each handler decodes frames and runs
/// them through the shared request queue, answering in order. Dropping
/// the server stops accepting; established connections drain until their
/// clients hang up or the service rejects with `ShuttingDown`.
pub struct TcpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl TcpServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts accepting.
    ///
    /// # Errors
    ///
    /// Bind failures.
    pub fn bind(service: Arc<Service>, addr: &str) -> io::Result<TcpServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let acceptor = std::thread::Builder::new()
            .name("fusion-acceptor".into())
            .spawn(move || {
                // Handler threads detach: they exit on client EOF, and
                // the process exits with the test/binary regardless.
                for conn in listener.incoming() {
                    if stop2.load(Ordering::Acquire) {
                        return;
                    }
                    let Ok(stream) = conn else { continue };
                    let service = Arc::clone(&service);
                    let _ = std::thread::Builder::new()
                        .name("fusion-conn".into())
                        .spawn(move || {
                            let _ = serve_connection(&service, stream);
                        });
                }
            })?;
        Ok(TcpServer {
            addr: local,
            stop,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (with the OS-chosen port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock the acceptor with one throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
    }
}

/// One connection's serve loop: read frame → execute → write response,
/// in order. A malformed frame gets an error *response*; a hostile
/// length prefix kills only this connection.
fn serve_connection(service: &Service, stream: TcpStream) -> io::Result<()> {
    let mut reader = io::BufReader::new(stream.try_clone()?);
    let mut writer = io::BufWriter::new(stream);
    while let Some(body) = read_frame(&mut reader)? {
        let resp = serve_frame(service, &body);
        write_frame(&mut writer, &resp)?;
    }
    Ok(())
}

/// TCP client: up to `window` requests in flight on one connection;
/// responses arrive in request order. `send` blocks once the window
/// fills — per-connection backpressure, so one client cannot buffer
/// unboundedly into the server. Through [`Transport::call`] (or with
/// `window == 1`) it is strict request/response.
pub struct PipelinedTcp {
    writer: io::BufWriter<TcpStream>,
    /// In-order receivers for outstanding responses.
    pending: std::collections::VecDeque<mpsc::Receiver<io::Result<Vec<u8>>>>,
    /// Feeds response slots to the reader thread, FIFO.
    slots: mpsc::Sender<mpsc::Sender<io::Result<Vec<u8>>>>,
    window: usize,
    reader: Option<JoinHandle<()>>,
}

impl PipelinedTcp {
    /// Connects with an in-flight window of `window` requests.
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect(addr: SocketAddr, window: usize) -> io::Result<PipelinedTcp> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let read_half = stream.try_clone()?;
        let (slot_tx, slot_rx) = mpsc::channel::<mpsc::Sender<io::Result<Vec<u8>>>>();
        let reader = std::thread::Builder::new()
            .name("fusion-pipeline-rx".into())
            .spawn(move || {
                let mut r = io::BufReader::new(read_half);
                // Each queued slot corresponds to one written request;
                // responses are in order, so pair them FIFO.
                while let Ok(slot) = slot_rx.recv() {
                    let out = match read_frame(&mut r) {
                        Ok(Some(body)) => Ok(body),
                        Ok(None) => Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "server closed with responses outstanding",
                        )),
                        Err(e) => Err(e),
                    };
                    let failed = out.is_err();
                    let _ = slot.send(out);
                    if failed {
                        return;
                    }
                }
            })?;
        Ok(PipelinedTcp {
            writer: io::BufWriter::new(stream),
            pending: std::collections::VecDeque::new(),
            slots: slot_tx,
            window: window.max(1),
            reader: Some(reader),
        })
    }

    /// Sends one request; blocks while the window is full.
    ///
    /// # Errors
    ///
    /// Write failures, or the error of the response this send had to
    /// retire to make room.
    pub fn send(&mut self, body: &[u8]) -> io::Result<()> {
        if self.pending.len() >= self.window {
            // Retire the oldest response before admitting another.
            self.recv()?;
        }
        let (tx, rx) = mpsc::channel();
        self.slots
            .send(tx)
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "reader thread gone"))?;
        self.pending.push_back(rx);
        write_frame(&mut self.writer, body)
    }

    /// Receives the oldest outstanding response.
    ///
    /// # Errors
    ///
    /// No outstanding requests, reader-thread death, or stream errors.
    pub fn recv(&mut self) -> io::Result<Vec<u8>> {
        let rx = self.pending.pop_front().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "no outstanding requests")
        })?;
        rx.recv()
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "reader thread gone"))?
    }

    /// Outstanding (sent, unretired) requests.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Retires every outstanding response.
    ///
    /// # Errors
    ///
    /// First failure wins; later responses are dropped with the stream.
    pub fn drain(&mut self) -> io::Result<Vec<Vec<u8>>> {
        let mut out = Vec::with_capacity(self.pending.len());
        while !self.pending.is_empty() {
            out.push(self.recv()?);
        }
        Ok(out)
    }
}

impl Transport for PipelinedTcp {
    fn call(&mut self, body: &[u8]) -> io::Result<Vec<u8>> {
        self.send(body)?;
        // Strict alternation when used through the trait: drain to one.
        while self.pending.len() > 1 {
            self.recv()?;
        }
        self.recv()
    }
}

impl Drop for PipelinedTcp {
    fn drop(&mut self) {
        self.pending.clear();
        // Closing the slot channel and the write half stops the reader.
        let (dead_tx, _) = mpsc::channel();
        let _ = std::mem::replace(&mut self.slots, dead_tx);
        if let Some(h) = self.reader.take() {
            let _ = self.writer.flush();
            if let Ok(stream) = self.writer.get_ref().try_clone() {
                let _ = stream.shutdown(std::net::Shutdown::Both);
            }
            let _ = h.join();
        }
    }
}

#[allow(dead_code)]
fn _assert_send() {
    fn is_send<T: Send>() {}
    is_send::<Loopback>();
    is_send::<PipelinedTcp>();
}
