//! Framed byte transport for request/response protocols: one duplex
//! TCP connection ([`FramedConn`]) carrying typed frames, the wire of the
//! `gosh serve` query layer.
//!
//! Frames are `[tag: u32 LE][len: u64 LE][payload bytes]`. Message
//! *meaning* (which tag is a query, which a hit list) lives with the
//! caller — see `gosh-core::serve` for the typed message layer.
//!
//! A dead peer is an *error*, not a crash: `send`/`recv` return
//! [`TransportError`] carrying which peer died and what frame was in
//! flight, so a long-running caller (`gosh serve`) can report the
//! failure and keep its process.

use std::io::{self, BufReader, ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// Why a transport operation failed: which peer, which direction, and —
/// for sends — which frame tag was in flight. The message is the
/// product: a server loop prints it and survives.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TransportError {
    /// Operation that failed: `"send"` or `"recv"`.
    pub op: &'static str,
    /// The peer of the failed frame (its socket address).
    pub peer: String,
    /// Tag of the frame in flight: the one being sent, or on recv the
    /// one that arrived malformed (`None` when no frame arrived).
    pub tag: Option<u32>,
    /// Underlying cause: the I/O error text, or the protocol error a
    /// caller such as `gosh-core::serve` found in the frame.
    pub detail: String,
}

impl TransportError {
    pub(crate) fn new(
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

// ---------------------------------------------------------------------
// Frame codec
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

/// Read one frame from a stream. The length an untrusted prefix may
/// claim is capped at [`MAX_FRAME_BYTES`].
fn read_frame<R: Read>(r: &mut R) -> io::Result<(u32, Vec<u8>)> {
    let mut header = [0u8; 12];
    r.read_exact(&mut header)?;
    let tag = u32::from_le_bytes(header[..4].try_into().unwrap()); // audit:allow(unwrap): fixed 4-byte slice
    let len = u64::from_le_bytes(header[4..].try_into().unwrap()); // audit:allow(unwrap): fixed 8-byte slice
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME_BYTES}-byte limit"),
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

/// Frame-length ceiling: the peer of a [`FramedConn`] is untrusted.
pub const MAX_FRAME_BYTES: u64 = 1 << 30;

// ---------------------------------------------------------------------
// Single-socket framed connection
// ---------------------------------------------------------------------

/// One duplex TCP connection speaking the frame format — the transport
/// of the `gosh serve` query layer. The peer is identified by its socket
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
        read_frame(&mut self.reader)
            .map_err(|e| TransportError::new("recv", self.peer.clone(), None, detail(&e)))
    }

    /// Receive the next frame, mapping a clean EOF (the peer closed the
    /// socket between frames) to `Ok(None)`. Mid-frame disconnects and
    /// I/O errors still surface as `Err`.
    pub fn recv_opt(&mut self) -> Result<Option<(u32, Vec<u8>)>, TransportError> {
        match read_frame(&mut self.reader) {
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
    use std::net::TcpListener;

    /// A connected client/server pair over loopback.
    fn conn_pair() -> (FramedConn, FramedConn) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = FramedConn::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        (client, FramedConn::from_stream(stream).unwrap())
    }

    #[test]
    fn tcp_frames_larger_than_socket_buffers_survive() {
        let (mut a, mut b) = conn_pair();
        let payload: Vec<u8> = (0..4_000_000u32).map(|i| (i * 31) as u8).collect();
        let expect = payload.clone();
        // Writer must run concurrently: 4 MB exceeds loopback buffering.
        std::thread::scope(|scope| {
            scope.spawn(move || a.send(42, &payload).unwrap());
            let (tag, body) = b.recv().unwrap();
            assert_eq!(tag, 42);
            assert_eq!(body, expect);
        });
    }

    /// The kill-one-peer regression: a dead TCP peer must surface as a
    /// `TransportError` naming the peer, not abort the process.
    #[test]
    fn tcp_dead_peer_is_an_error_naming_the_peer() {
        let (mut a, b) = conn_pair();
        let peer = a.peer().to_string();
        drop(b); // the server side dies

        let err = a.recv().unwrap_err();
        assert_eq!(err.op, "recv");
        assert_eq!(err.peer, peer);
        assert!(err.to_string().contains(&format!("peer {peer}")), "{err}");

        // A send may need several frames before the kernel reports the
        // broken pipe (loopback buffers absorb the first writes), but it
        // must eventually fail — and with peer context, not a panic.
        let payload = vec![0u8; 1 << 20];
        let mut send_err = None;
        for _ in 0..64 {
            if let Err(e) = a.send(9, &payload) {
                send_err = Some(e);
                break;
            }
        }
        let err = send_err.expect("send to a dead peer never failed");
        assert_eq!(err.op, "send");
        assert_eq!(err.tag, Some(9));
        assert!(err.to_string().contains(&format!("peer {peer}")), "{err}");
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
        let err = read_frame(&mut wire.as_slice()).unwrap_err();
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
            assert_eq!(read_frame(&mut wire.as_slice()).unwrap(), (9, body));
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
}
