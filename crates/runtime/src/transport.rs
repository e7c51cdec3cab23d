//! Node-to-node message transport: the runtime's task model stretched
//! across a process boundary.
//!
//! A distributed node is just another device with a slow interconnect —
//! the same framing works over an in-process channel (tests, perfect
//! determinism) and a real TCP loopback socket (exercises serialization
//! and the kernel network stack). Both carry the identical byte stream:
//! a typed tag, a length, and an opaque payload, so everything built on
//! [`Transport`] is bit-identical across implementations by
//! construction — the cross-transport equality proptests enforce it.
//!
//! Frames are `[tag: u32 LE][len: u64 LE][payload bytes]`. Message
//! *meaning* (which tag is a delta, which a base broadcast) lives with
//! the caller — see `gosh-core::distrib` for the typed message layer.
//!
//! A dead peer is an *error*, not a crash: `send`/`recv` return
//! [`TransportError`] carrying which peer died and what frame was in
//! flight, so long-running callers (`gosh serve`, `gosh train --nodes N`)
//! can report the failure and keep their process. [`FramedConn`] carries
//! the same framing over one duplex socket for client/server protocols
//! that are not a mesh (the `gosh serve` query layer).
//!
//! [`Interconnect`] prices the copies: the PCIe cost model from the
//! simulated device (`bytes / (gbps · 1e9)` of idle wall-clock, charged
//! only when it is long enough to schedule) generalized to the network
//! link between nodes.

use std::io::{self, BufReader, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::Duration;

/// Why a transport operation failed: which peer, which direction, and —
/// for sends — which frame tag was in flight. The message is the
/// product: a mesh node or a server loop prints it and survives, where
/// the old `expect("tcp peer hung up mid-run")` killed the process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TransportError {
    /// Operation that failed: `"send"` or `"recv"`.
    pub op: &'static str,
    /// The peer of the failed frame (mesh node id or address label).
    pub peer: String,
    /// Tag of the frame in flight: the one being sent, or on recv the
    /// one that arrived malformed (`None` when no frame arrived).
    pub tag: Option<u32>,
    /// Underlying cause (I/O error text, or "peer endpoint dropped").
    pub detail: String,
}

impl TransportError {
    pub fn new(
        op: &'static str,
        peer: impl Into<String>,
        tag: Option<u32>,
        detail: String,
    ) -> Self {
        Self {
            op,
            peer: peer.into(),
            tag,
            detail,
        }
    }
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.tag {
            Some(tag) => write!(
                f,
                "{} of frame 0x{tag:X} (peer {}) failed: {}",
                self.op, self.peer, self.detail
            ),
            None => write!(
                f,
                "{} from peer {} failed: {}",
                self.op, self.peer, self.detail
            ),
        }
    }
}

impl std::error::Error for TransportError {}

/// A byte-frame transport between the nodes of one training run.
///
/// Endpoints are single-owner (`&mut self`): each node thread holds its
/// own endpoint exclusively, mirroring one process's view of the mesh.
/// `send` never blocks on the peer draining (buffered mesh); `recv`
/// blocks until the peer's next frame arrives. Both surface a dead peer
/// as [`TransportError`] instead of panicking.
pub trait Transport: Send {
    /// This endpoint's node id in `0..nodes()`.
    fn node(&self) -> usize;
    /// Number of nodes in the mesh.
    fn nodes(&self) -> usize;
    /// Send one tagged frame to `peer`.
    fn send(&mut self, peer: usize, tag: u32, payload: &[u8]) -> Result<(), TransportError>;
    /// Receive the next frame *from `peer`* (per-peer FIFO order).
    fn recv(&mut self, peer: usize) -> Result<(u32, Vec<u8>), TransportError>;
}

/// The interconnect cost model: the simulated device's PCIe pricing
/// (`gosh-gpu`'s `dma_delay`) generalized to the link between nodes.
/// Copies are charged `bytes / (gbps · 1e9)` seconds of idle wall-clock;
/// delays under 20 µs are treated as free because the host cannot
/// schedule a sleep that short anyway.
#[derive(Clone, Copy, Debug)]
pub struct Interconnect {
    /// Modeled link bandwidth in GB/s.
    pub gbps: f64,
}

impl Interconnect {
    const MIN_SLEEP: f64 = 20e-6;

    pub fn new(gbps: f64) -> Self {
        assert!(gbps > 0.0, "interconnect bandwidth must be positive");
        Self { gbps }
    }

    /// The modeled transfer time for `bytes` over this link.
    pub fn delay(&self, bytes: usize) -> Duration {
        Duration::from_secs_f64(bytes as f64 / (self.gbps * 1e9))
    }

    /// Charge a transfer: sleep the modeled delay if it is long enough
    /// to schedule. Returns the charged duration (zero when skipped).
    pub fn charge(&self, bytes: usize) -> Duration {
        let d = self.delay(bytes);
        if d.as_secs_f64() >= Self::MIN_SLEEP {
            std::thread::sleep(d);
            d
        } else {
            Duration::ZERO
        }
    }
}

// ---------------------------------------------------------------------
// In-process channel mesh
// ---------------------------------------------------------------------

/// One in-flight frame on the channel mesh: `(tag, payload)`.
type Frame = (u32, Vec<u8>);

/// In-process transport: a full mesh of unbounded channels, one per
/// ordered node pair. The reference implementation — zero serialization
/// cost, deterministic per-peer FIFO delivery.
pub struct ChannelTransport {
    node: usize,
    /// `senders[j]` carries frames `self.node -> j` (`None` at `j == node`).
    senders: Vec<Option<Sender<Frame>>>,
    /// `receivers[j]` carries frames `j -> self.node`.
    receivers: Vec<Option<Receiver<Frame>>>,
}

/// Build the full in-process mesh for `nodes` endpoints.
pub fn channel_mesh(nodes: usize) -> Vec<ChannelTransport> {
    assert!(nodes >= 1, "a mesh needs at least one node");
    let mut endpoints: Vec<ChannelTransport> = (0..nodes)
        .map(|node| ChannelTransport {
            node,
            senders: (0..nodes).map(|_| None).collect(),
            receivers: (0..nodes).map(|_| None).collect(),
        })
        .collect();
    for i in 0..nodes {
        for j in 0..nodes {
            if i == j {
                continue;
            }
            let (tx, rx) = channel();
            endpoints[i].senders[j] = Some(tx);
            endpoints[j].receivers[i] = Some(rx);
        }
    }
    endpoints
}

impl Transport for ChannelTransport {
    fn node(&self) -> usize {
        self.node
    }

    fn nodes(&self) -> usize {
        self.senders.len()
    }

    fn send(&mut self, peer: usize, tag: u32, payload: &[u8]) -> Result<(), TransportError> {
        self.senders[peer]
            .as_ref()
            .expect("no channel to self")
            .send((tag, payload.to_vec()))
            .map_err(|_| {
                TransportError::new(
                    "send",
                    peer.to_string(),
                    Some(tag),
                    "peer endpoint dropped".into(),
                )
            })
    }

    fn recv(&mut self, peer: usize) -> Result<(u32, Vec<u8>), TransportError> {
        self.receivers[peer]
            .as_ref()
            .expect("no channel from self")
            .recv()
            .map_err(|_| {
                TransportError::new(
                    "recv",
                    peer.to_string(),
                    None,
                    "peer endpoint dropped".into(),
                )
            })
    }
}

// ---------------------------------------------------------------------
// Frame codec shared by the TCP mesh and FramedConn
// ---------------------------------------------------------------------

/// Write one `[tag][len][payload]` frame to a stream.
fn write_frame<W: Write>(w: &mut W, tag: u32, payload: &[u8]) -> io::Result<()> {
    let mut header = [0u8; 12];
    header[..4].copy_from_slice(&tag.to_le_bytes());
    header[4..].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    w.write_all(&header)?;
    w.write_all(payload)?;
    w.flush()
}

/// Read one frame from a stream. `max_len` bounds the length an
/// untrusted prefix may claim.
fn read_frame<R: Read>(r: &mut R, max_len: u64) -> io::Result<(u32, Vec<u8>)> {
    let mut header = [0u8; 12];
    r.read_exact(&mut header)?;
    let tag = u32::from_le_bytes(header[..4].try_into().unwrap()); // audit:allow(unwrap): fixed 4-byte slice
    let len = u64::from_le_bytes(header[4..].try_into().unwrap()); // audit:allow(unwrap): fixed 8-byte slice
    if len > max_len {
        return Err(io::Error::new(
            ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {max_len}-byte limit"),
        ));
    }
    let mut payload = Vec::new();
    read_payload(r, len, &mut payload)?;
    Ok((tag, payload))
}

/// Largest payload allocated on the length prefix's word alone.
const EAGER_PAYLOAD_BYTES: u64 = 64 << 10;

/// Read a `len`-byte payload into the empty `payload`. Up to
/// [`EAGER_PAYLOAD_BYTES`] it is one allocation and one `read_exact`;
/// beyond that the buffer grows with the bytes actually received, so a
/// garbage header cannot make the server allocate what the peer never
/// sends. A peer that stops short is `UnexpectedEof` either way.
fn read_payload<R: Read>(r: &mut R, len: u64, payload: &mut Vec<u8>) -> io::Result<()> {
    if len <= EAGER_PAYLOAD_BYTES {
        payload.resize(len as usize, 0);
        return r.read_exact(payload);
    }
    payload.reserve(EAGER_PAYLOAD_BYTES as usize);
    let got = r.by_ref().take(len).read_to_end(payload)? as u64;
    if got < len {
        return Err(io::Error::new(
            ErrorKind::UnexpectedEof,
            format!("frame claims {len} payload bytes, peer sent {got}"),
        ));
    }
    Ok(())
}

/// Frame-length ceiling for connections that face untrusted peers
/// ([`FramedConn`]). Mesh endpoints are wired between our own nodes and
/// accept any length.
pub const MAX_FRAME_BYTES: u64 = 1 << 30;

// ---------------------------------------------------------------------
// TCP loopback mesh
// ---------------------------------------------------------------------

/// TCP transport over 127.0.0.1: one socket per ordered node pair,
/// wired centrally before the node threads start (the nodes of a
/// simulated cluster live in one process, so no handshake protocol is
/// needed — the mesh builder owns both ends of every accept).
pub struct TcpTransport {
    node: usize,
    /// `writers[j]` is the write half of the `self.node -> j` socket.
    writers: Vec<Option<TcpStream>>,
    /// `readers[j]` is the buffered read half of the `j -> self.node` socket.
    readers: Vec<Option<BufReader<TcpStream>>>,
}

/// Build the full TCP-loopback mesh for `nodes` endpoints.
pub fn tcp_mesh(nodes: usize) -> io::Result<Vec<TcpTransport>> {
    assert!(nodes >= 1, "a mesh needs at least one node");
    let mut endpoints: Vec<TcpTransport> = (0..nodes)
        .map(|node| TcpTransport {
            node,
            writers: (0..nodes).map(|_| None).collect(),
            readers: (0..nodes).map(|_| None).collect(),
        })
        .collect();
    for i in 0..nodes {
        for j in 0..nodes {
            if i == j {
                continue;
            }
            // Ephemeral-port listener per pair: no fixed ports, no
            // clashes with whatever else runs on the host.
            let listener = TcpListener::bind("127.0.0.1:0")?;
            let addr = listener.local_addr()?;
            let writer = TcpStream::connect(addr)?;
            let (reader, _) = listener.accept()?;
            writer.set_nodelay(true)?;
            reader.set_nodelay(true)?;
            endpoints[i].writers[j] = Some(writer);
            endpoints[j].readers[i] = Some(BufReader::new(reader));
        }
    }
    Ok(endpoints)
}

impl Transport for TcpTransport {
    fn node(&self) -> usize {
        self.node
    }

    fn nodes(&self) -> usize {
        self.writers.len()
    }

    fn send(&mut self, peer: usize, tag: u32, payload: &[u8]) -> Result<(), TransportError> {
        let w = self.writers[peer].as_mut().expect("no socket to self");
        write_frame(w, tag, payload).map_err(|e| {
            TransportError::new(
                "send",
                peer.to_string(),
                Some(tag),
                format!("tcp peer hung up ({e})"),
            )
        })
    }

    fn recv(&mut self, peer: usize) -> Result<(u32, Vec<u8>), TransportError> {
        let r = self.readers[peer].as_mut().expect("no socket from self");
        read_frame(r, u64::MAX).map_err(|e| {
            TransportError::new(
                "recv",
                peer.to_string(),
                None,
                format!("tcp peer hung up ({e})"),
            )
        })
    }
}

// ---------------------------------------------------------------------
// Single-socket framed connection (client/server protocols)
// ---------------------------------------------------------------------

/// One duplex TCP connection speaking the mesh's frame format — the
/// transport of request/response protocols that are not a mesh (the
/// `gosh serve` query layer). The peer is identified by its socket
/// address in every error, and incoming frame lengths are capped at
/// [`MAX_FRAME_BYTES`] because the far end is untrusted.
pub struct FramedConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    peer: String,
}

impl FramedConn {
    /// Connect to a listening server.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        Self::from_stream(stream)
    }

    /// Wrap an accepted (or connected) stream.
    pub fn from_stream(stream: TcpStream) -> io::Result<Self> {
        stream.set_nodelay(true)?;
        let peer = stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "<unknown>".into());
        let writer = stream.try_clone()?;
        Ok(Self {
            reader: BufReader::new(stream),
            writer,
            peer,
        })
    }

    /// The peer's socket address (as it appears in errors).
    pub fn peer(&self) -> &str {
        &self.peer
    }

    /// Send one tagged frame.
    pub fn send(&mut self, tag: u32, payload: &[u8]) -> Result<(), TransportError> {
        write_frame(&mut self.writer, tag, payload)
            .map_err(|e| TransportError::new("send", self.peer.clone(), Some(tag), detail(&e)))
    }

    /// Receive the next frame. A cleanly closed connection surfaces as
    /// an error whose detail mentions EOF — callers treating disconnect
    /// as routine can match on [`FramedConn::recv_opt`] instead.
    pub fn recv(&mut self) -> Result<(u32, Vec<u8>), TransportError> {
        read_frame(&mut self.reader, MAX_FRAME_BYTES)
            .map_err(|e| TransportError::new("recv", self.peer.clone(), None, detail(&e)))
    }

    /// Receive the next frame, mapping a clean EOF (the peer closed the
    /// socket between frames) to `Ok(None)`. Mid-frame disconnects and
    /// I/O errors still surface as `Err`.
    pub fn recv_opt(&mut self) -> Result<Option<(u32, Vec<u8>)>, TransportError> {
        match read_frame(&mut self.reader, MAX_FRAME_BYTES) {
            Ok(frame) => Ok(Some(frame)),
            Err(e) if e.kind() == ErrorKind::UnexpectedEof => Ok(None),
            Err(e) => Err(TransportError::new(
                "recv",
                self.peer.clone(),
                None,
                detail(&e),
            )),
        }
    }
}

/// An I/O error as a [`TransportError`] detail. A socket timeout (which
/// Unix reports as `WouldBlock`) says that it timed out.
fn detail(e: &io::Error) -> String {
    match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => format!("timed out ({e})"),
        _ => e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(mut mesh: Vec<Box<dyn Transport>>) {
        let n = mesh.len();
        assert_eq!(n, 3);
        // Every ordered pair carries two frames; per-peer FIFO holds.
        std::thread::scope(|scope| {
            for ep in mesh.iter_mut() {
                scope.spawn(move || {
                    let me = ep.node();
                    for peer in 0..n {
                        if peer == me {
                            continue;
                        }
                        ep.send(peer, 7, &[me as u8, peer as u8]).unwrap();
                        ep.send(peer, 8, &[0xAB; 1000]).unwrap();
                    }
                    for peer in 0..n {
                        if peer == me {
                            continue;
                        }
                        let (tag, body) = ep.recv(peer).unwrap();
                        assert_eq!((tag, body), (7, vec![peer as u8, me as u8]));
                        let (tag, body) = ep.recv(peer).unwrap();
                        assert_eq!(tag, 8);
                        assert_eq!(body, vec![0xAB; 1000]);
                    }
                });
            }
        });
    }

    #[test]
    fn channel_mesh_roundtrips_frames() {
        let mesh = channel_mesh(3)
            .into_iter()
            .map(|e| Box::new(e) as Box<dyn Transport>)
            .collect();
        roundtrip(mesh);
    }

    #[test]
    fn tcp_mesh_roundtrips_frames() {
        let mesh = tcp_mesh(3)
            .expect("loopback mesh")
            .into_iter()
            .map(|e| Box::new(e) as Box<dyn Transport>)
            .collect();
        roundtrip(mesh);
    }

    #[test]
    fn tcp_frames_larger_than_socket_buffers_survive() {
        let mut mesh = tcp_mesh(2).expect("loopback mesh");
        let payload: Vec<u8> = (0..4_000_000u32).map(|i| (i * 31) as u8).collect();
        let expect = payload.clone();
        let (mut a, mut b) = {
            let b = mesh.pop().unwrap();
            let a = mesh.pop().unwrap();
            (a, b)
        };
        // Writer must run concurrently: 4 MB exceeds loopback buffering.
        std::thread::scope(|scope| {
            scope.spawn(move || a.send(1, 42, &payload).unwrap());
            let (tag, body) = b.recv(0).unwrap();
            assert_eq!(tag, 42);
            assert_eq!(body, expect);
        });
    }

    /// The kill-one-peer regression: a dead TCP peer must surface as a
    /// `TransportError` naming the peer, not abort the process.
    #[test]
    fn tcp_dead_peer_is_an_error_naming_the_peer() {
        let mut mesh = tcp_mesh(2).expect("loopback mesh");
        let b = mesh.pop().unwrap();
        let mut a = mesh.pop().unwrap();
        drop(b); // peer 1 dies

        let err = a.recv(1).unwrap_err();
        assert_eq!(err.op, "recv");
        assert_eq!(err.peer, "1");
        assert!(err.to_string().contains("peer 1"), "{err}");

        // A send may need several frames before the kernel reports the
        // broken pipe (loopback buffers absorb the first writes), but it
        // must eventually fail — and with peer context, not a panic.
        let payload = vec![0u8; 1 << 20];
        let mut send_err = None;
        for _ in 0..64 {
            if let Err(e) = a.send(1, 9, &payload) {
                send_err = Some(e);
                break;
            }
        }
        let err = send_err.expect("send to a dead peer never failed");
        assert_eq!(err.op, "send");
        assert_eq!(err.tag, Some(9));
        assert!(err.to_string().contains("peer 1"), "{err}");
    }

    #[test]
    fn channel_dead_peer_is_an_error_naming_the_peer() {
        let mut mesh = channel_mesh(2);
        let b = mesh.pop().unwrap();
        let mut a = mesh.pop().unwrap();
        drop(b);
        let err = a.send(1, 3, &[1, 2]).unwrap_err();
        assert_eq!((err.op, err.tag), ("send", Some(3)));
        assert!(err.to_string().contains("peer 1"), "{err}");
        let err = a.recv(1).unwrap_err();
        assert_eq!((err.op, err.tag), ("recv", None));
        assert!(err.to_string().contains("peer 1"), "{err}");
    }

    #[test]
    fn framed_conn_roundtrips_and_reports_eof() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut conn = FramedConn::from_stream(stream).unwrap();
            let (tag, body) = conn.recv().unwrap();
            conn.send(tag + 1, &body).unwrap();
            // Client hangs up after one exchange: clean EOF, not an error.
            assert!(conn.recv_opt().unwrap().is_none());
        });
        let mut client = FramedConn::connect(addr).unwrap();
        client.send(5, b"ping").unwrap();
        let (tag, body) = client.recv().unwrap();
        assert_eq!((tag, body.as_slice()), (6, b"ping".as_slice()));
        drop(client);
        server.join().unwrap();
    }

    #[test]
    fn short_payload_is_eof_without_allocating_the_claimed_length() {
        // The header of a 1 GiB frame (the most `FramedConn` accepts),
        // then 10 bytes and EOF.
        let mut wire = Vec::new();
        write_frame(&mut wire, 7, &[0xCD; 10]).unwrap();
        wire[4..12].copy_from_slice(&MAX_FRAME_BYTES.to_le_bytes());
        let err = read_frame(&mut wire.as_slice(), MAX_FRAME_BYTES).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
        assert!(err.to_string().contains("peer sent 10"), "{err}");

        let mut payload = Vec::new();
        let err = read_payload(&mut &wire[12..], MAX_FRAME_BYTES, &mut payload).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
        assert_eq!(payload, [0xCD; 10]);
        assert!(payload.capacity() <= 128 << 10, "{}", payload.capacity());

        // An honest frame on either side of the eager limit arrives whole.
        for len in [
            EAGER_PAYLOAD_BYTES as usize,
            EAGER_PAYLOAD_BYTES as usize + 1,
        ] {
            let body: Vec<u8> = (0..len).map(|i| (i * 31) as u8).collect();
            let mut wire = Vec::new();
            write_frame(&mut wire, 9, &body).unwrap();
            assert_eq!(
                read_frame(&mut wire.as_slice(), MAX_FRAME_BYTES).unwrap(),
                (9, body)
            );
        }
    }

    #[test]
    fn framed_conn_rejects_oversized_length_prefix() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut conn = FramedConn::from_stream(stream).unwrap();
            conn.recv()
        });
        // A raw client claiming a 2^62-byte frame: the server must error
        // out instead of trying to allocate it.
        let mut raw = TcpStream::connect(addr).unwrap();
        let mut header = [0u8; 12];
        header[..4].copy_from_slice(&7u32.to_le_bytes());
        header[4..].copy_from_slice(&(1u64 << 62).to_le_bytes());
        raw.write_all(&header).unwrap();
        raw.flush().unwrap();
        let err = server.join().unwrap().unwrap_err();
        assert!(err.detail.contains("exceeds"), "{err}");
    }

    #[test]
    fn single_node_mesh_is_valid_and_silent() {
        let mesh = channel_mesh(1);
        assert_eq!(mesh.len(), 1);
        assert_eq!(mesh[0].nodes(), 1);
    }

    #[test]
    fn interconnect_prices_like_the_pcie_model() {
        let link = Interconnect::new(1.0); // 1 GB/s
                                           // 1 MB at 1 GB/s = 1 ms — chargeable.
        assert!((link.delay(1_000_000).as_secs_f64() - 1e-3).abs() < 1e-9);
        assert!(link.charge(1_000_000) > Duration::ZERO);
        // 1 KB = 1 µs — below the scheduling floor, free.
        assert_eq!(link.charge(1_000), Duration::ZERO);
    }
}
