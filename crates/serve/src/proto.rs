//! The wire protocol: length-prefixed binary frames.
//!
//! A frame is a little-endian `u32` body length followed by the body;
//! bodies start with a one-byte tag. All integers are little-endian;
//! `f64`s travel as their IEEE-754 bit patterns so a region round-trips
//! bit-exactly (the scenario cache keys on those bits). Decoding is
//! total: every malformed input yields a [`ProtoError`], never a panic,
//! and bodies above [`MAX_FRAME_BYTES`] are rejected before allocation.
//!
//! The same encoding is used verbatim on both transports — TCP frames
//! and the in-process channel carry the same [`Request`]/[`Response`]
//! values — which is what makes the loadgen-vs-driver byte-identity
//! test meaningful: the comparison covers the encoded result bytes, not
//! an in-memory shortcut.

use rtr_topology::Region;

/// Upper bound on a frame body; larger length prefixes are rejected
/// as [`ProtoError::Oversize`] before any allocation happens.
pub const MAX_FRAME_BYTES: usize = 1 << 22;

/// A decoded client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run one recovery session and answer with the installed routes.
    Recover(RecoverRequest),
    /// Ask the service to drain and exit.
    Shutdown,
}

/// A circular failure observation, as reported by the initiator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionSpec {
    /// Circle center x.
    pub cx: f64,
    /// Circle center y.
    pub cy: f64,
    /// Circle radius.
    pub radius: f64,
}

impl RegionSpec {
    /// Extracts the spec from an eval [`Region`] (`None` for non-circle
    /// regions, which the protocol does not carry).
    #[must_use]
    pub fn from_region(region: &Region) -> Option<Self> {
        match region {
            Region::Circle(c) => Some(RegionSpec {
                cx: c.center.x,
                cy: c.center.y,
                radius: c.radius,
            }),
            _ => None,
        }
    }

    /// True when all coordinates are finite and the radius nonnegative —
    /// the precondition of [`Region::circle`], checked here so a hostile
    /// frame can never reach that constructor's assertion.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        self.cx.is_finite() && self.cy.is_finite() && self.radius.is_finite() && self.radius >= 0.0
    }

    /// The validated region, or `None` when [`is_valid`](Self::is_valid)
    /// fails.
    #[must_use]
    pub fn to_region(&self) -> Option<Region> {
        self.is_valid()
            .then(|| Region::circle((self.cx, self.cy), self.radius))
    }

    /// Bit-exact cache key for the scenario cache.
    #[must_use]
    pub fn key(&self) -> (u64, u64, u64) {
        (self.cx.to_bits(), self.cy.to_bits(), self.radius.to_bits())
    }
}

/// One recovery query: a failure observation at an initiator plus the
/// destinations whose default routes it broke.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoverRequest {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// Index into the daemon's fleet.
    pub topo: u16,
    /// The observed failure region.
    pub region: RegionSpec,
    /// The recovery initiator's node id.
    pub initiator: u32,
    /// The unusable default next-hop link that triggered recovery.
    pub failed_link: u32,
    /// The recovery scheme to answer with: a
    /// [`rtr_baselines::SchemeId::code`] (`0` = RTR, the default). Scheme
    /// `0` requests encode as the original v1 frame, so pre-scheme
    /// clients and servers interoperate unchanged; nonzero schemes use
    /// the v2 tag that old servers reject as
    /// [`ProtoError::BadTag`].
    pub scheme: u8,
    /// Destinations to recover, in request order.
    pub dests: Vec<u32>,
}

/// A decoded service response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The answer to a [`Request::Recover`].
    Recover(RecoverResponse),
    /// The request was rejected; `id` echoes the request (0 when the
    /// request was too malformed to carry one).
    Error {
        /// Echoed request id.
        id: u64,
        /// Why the request was rejected.
        error: ServeError,
    },
    /// Acknowledgement of a [`Request::Shutdown`].
    ShuttingDown,
}

/// The recovery answer: one result per requested destination, in
/// request order, plus the worker-side service time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoverResponse {
    /// Echoed request id.
    pub id: u64,
    /// Per-destination outcomes and installed source routes.
    pub results: Vec<DestResult>,
    /// Wall time the worker spent on this request, in microseconds.
    /// Excluded from byte-identity comparisons (timing is host noise;
    /// `results` is the deterministic payload).
    pub service_micros: u64,
}

/// The outcome of one destination's recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The source-routed packet reached the destination.
    Delivered,
    /// The believed path hit a failure phase 1 missed; discarded at the
    /// node before this dead link.
    HitFailure {
        /// The dead link the packet ran into.
        at_link: u32,
    },
    /// The initiator's repaired view had no path at all.
    NoPath,
}

/// One destination's recovery result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DestResult {
    /// The destination this result answers.
    pub dest: u32,
    /// What happened to the source-routed packet.
    pub outcome: Outcome,
    /// Cost of the believed recovery path (0 when none existed).
    pub cost: u64,
    /// The installed source route's node ids, initiator first (empty
    /// when no path existed).
    pub route: Vec<u32>,
}

/// Why a request was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// The topology index is outside the daemon's fleet.
    UnknownTopology,
    /// The region was non-finite or negative-radius.
    BadRegion,
    /// An id (initiator, failed link, destination) is out of range for
    /// the topology.
    BadId,
    /// Phase 1 refused to start (link not incident / still usable / no
    /// live neighbor).
    Phase1Rejected,
    /// The service is draining and accepts no new work.
    Draining,
    /// The frame failed to decode.
    Malformed,
    /// The requested scheme selector is not one this server can answer
    /// (unknown code, or a comparator that cannot be built for the
    /// topology).
    UnknownScheme,
}

/// A decoding failure. Total: hostile bytes produce this, never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The body ended before a field was complete.
    Truncated,
    /// An unknown tag byte led the body.
    BadTag(u8),
    /// A length prefix exceeded [`MAX_FRAME_BYTES`].
    Oversize(usize),
    /// Trailing bytes followed a complete message.
    TrailingBytes,
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "frame truncated"),
            ProtoError::BadTag(t) => write!(f, "unknown message tag {t}"),
            ProtoError::Oversize(n) => write!(f, "frame of {n} bytes exceeds cap"),
            ProtoError::TrailingBytes => write!(f, "trailing bytes after message"),
        }
    }
}

const TAG_RECOVER_REQ: u8 = 1;
const TAG_SHUTDOWN: u8 = 2;
const TAG_RECOVER_RESP: u8 = 3;
const TAG_ERROR: u8 = 4;
const TAG_SHUTTING_DOWN: u8 = 5;
/// v2 recover request: v1 plus a scheme-selector byte after the failed
/// link. Emitted only for nonzero schemes so v1 peers keep
/// interoperating.
const TAG_RECOVER_REQ_V2: u8 = 6;

/// Little-endian cursor over a frame body.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        let end = self.pos.checked_add(n).ok_or(ProtoError::Truncated)?;
        let bytes = self.buf.get(self.pos..end).ok_or(ProtoError::Truncated)?;
        self.pos = end;
        Ok(bytes)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?.first().copied().unwrap_or(0))
    }

    fn u16(&mut self) -> Result<u16, ProtoError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes(b.try_into().unwrap_or([0; 2])))
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().unwrap_or([0; 4])))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().unwrap_or([0; 8])))
    }

    fn f64(&mut self) -> Result<f64, ProtoError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A `u32` count followed by that many `u32`s. The count is bounded
    /// by the remaining body length, so a hostile count cannot force a
    /// huge allocation.
    fn u32_list(&mut self) -> Result<Vec<u32>, ProtoError> {
        let n = self.u32()? as usize;
        if n > self.buf.len().saturating_sub(self.pos) / 4 {
            return Err(ProtoError::Truncated);
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.u32()?);
        }
        Ok(out)
    }

    fn finish(self) -> Result<(), ProtoError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ProtoError::TrailingBytes)
        }
    }
}

fn put_u32_list(out: &mut Vec<u8>, list: &[u32]) {
    out.extend_from_slice(&(list.len() as u32).to_le_bytes());
    for &v in list {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Encodes a request body (no length prefix; see [`write_frame`]).
#[must_use]
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    match req {
        Request::Recover(r) => {
            // Scheme 0 (RTR) emits the original v1 frame byte-for-byte;
            // only nonzero selectors need the v2 tag.
            out.push(if r.scheme == 0 {
                TAG_RECOVER_REQ
            } else {
                TAG_RECOVER_REQ_V2
            });
            out.extend_from_slice(&r.id.to_le_bytes());
            out.extend_from_slice(&r.topo.to_le_bytes());
            out.extend_from_slice(&r.region.cx.to_bits().to_le_bytes());
            out.extend_from_slice(&r.region.cy.to_bits().to_le_bytes());
            out.extend_from_slice(&r.region.radius.to_bits().to_le_bytes());
            out.extend_from_slice(&r.initiator.to_le_bytes());
            out.extend_from_slice(&r.failed_link.to_le_bytes());
            if r.scheme != 0 {
                out.push(r.scheme);
            }
            put_u32_list(&mut out, &r.dests);
        }
        Request::Shutdown => out.push(TAG_SHUTDOWN),
    }
    out
}

/// Decodes a request body.
///
/// # Errors
///
/// [`ProtoError`] on truncation, an unknown tag, or trailing bytes.
pub fn decode_request(body: &[u8]) -> Result<Request, ProtoError> {
    let mut r = Reader::new(body);
    let req = match r.u8()? {
        tag @ (TAG_RECOVER_REQ | TAG_RECOVER_REQ_V2) => Request::Recover(RecoverRequest {
            id: r.u64()?,
            topo: r.u16()?,
            region: RegionSpec {
                cx: r.f64()?,
                cy: r.f64()?,
                radius: r.f64()?,
            },
            initiator: r.u32()?,
            failed_link: r.u32()?,
            // v1 frames carry no selector: they mean RTR.
            scheme: if tag == TAG_RECOVER_REQ_V2 {
                r.u8()?
            } else {
                0
            },
            dests: r.u32_list()?,
        }),
        TAG_SHUTDOWN => Request::Shutdown,
        t => return Err(ProtoError::BadTag(t)),
    };
    r.finish()?;
    Ok(req)
}

fn error_code(e: ServeError) -> u8 {
    match e {
        ServeError::UnknownTopology => 0,
        ServeError::BadRegion => 1,
        ServeError::BadId => 2,
        ServeError::Phase1Rejected => 3,
        ServeError::Draining => 4,
        ServeError::Malformed => 5,
        ServeError::UnknownScheme => 6,
    }
}

fn error_from_code(c: u8) -> Result<ServeError, ProtoError> {
    Ok(match c {
        0 => ServeError::UnknownTopology,
        1 => ServeError::BadRegion,
        2 => ServeError::BadId,
        3 => ServeError::Phase1Rejected,
        4 => ServeError::Draining,
        5 => ServeError::Malformed,
        6 => ServeError::UnknownScheme,
        t => return Err(ProtoError::BadTag(t)),
    })
}

fn outcome_code(o: Outcome) -> (u8, u32) {
    match o {
        Outcome::Delivered => (0, 0),
        Outcome::HitFailure { at_link } => (1, at_link),
        Outcome::NoPath => (2, 0),
    }
}

/// Encodes a response body (no length prefix; see [`write_frame`]).
#[must_use]
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    match resp {
        Response::Recover(r) => {
            out.push(TAG_RECOVER_RESP);
            out.extend_from_slice(&r.id.to_le_bytes());
            out.extend_from_slice(&r.service_micros.to_le_bytes());
            out.extend_from_slice(&(r.results.len() as u32).to_le_bytes());
            for d in &r.results {
                let (code, at_link) = outcome_code(d.outcome);
                out.extend_from_slice(&d.dest.to_le_bytes());
                out.push(code);
                out.extend_from_slice(&at_link.to_le_bytes());
                out.extend_from_slice(&d.cost.to_le_bytes());
                put_u32_list(&mut out, &d.route);
            }
        }
        Response::Error { id, error } => {
            out.push(TAG_ERROR);
            out.extend_from_slice(&id.to_le_bytes());
            out.push(error_code(*error));
        }
        Response::ShuttingDown => out.push(TAG_SHUTTING_DOWN),
    }
    out
}

/// Decodes a response body.
///
/// # Errors
///
/// [`ProtoError`] on truncation, an unknown tag or code, or trailing
/// bytes.
pub fn decode_response(body: &[u8]) -> Result<Response, ProtoError> {
    let mut r = Reader::new(body);
    let resp = match r.u8()? {
        TAG_RECOVER_RESP => {
            let id = r.u64()?;
            let service_micros = r.u64()?;
            let n = r.u32()? as usize;
            if n > body.len() {
                return Err(ProtoError::Truncated);
            }
            let mut results = Vec::with_capacity(n);
            for _ in 0..n {
                let dest = r.u32()?;
                let code = r.u8()?;
                let at_link = r.u32()?;
                let outcome = match code {
                    0 => Outcome::Delivered,
                    1 => Outcome::HitFailure { at_link },
                    2 => Outcome::NoPath,
                    t => return Err(ProtoError::BadTag(t)),
                };
                results.push(DestResult {
                    dest,
                    outcome,
                    cost: r.u64()?,
                    route: r.u32_list()?,
                });
            }
            Response::Recover(RecoverResponse {
                id,
                results,
                service_micros,
            })
        }
        TAG_ERROR => Response::Error {
            id: r.u64()?,
            error: error_from_code(r.u8()?)?,
        },
        TAG_SHUTTING_DOWN => Response::ShuttingDown,
        t => return Err(ProtoError::BadTag(t)),
    };
    r.finish()?;
    Ok(resp)
}

/// Frames `body` with its `u32` little-endian length prefix.
#[must_use]
pub fn frame(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + 4);
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// Writes `body` as one frame, in one `write` call when the socket
/// takes it whole, retrying on `WouldBlock`/`Interrupted`. The retry
/// serves [`TcpClient`](crate::load::TcpClient), whose socket is
/// non-blocking so it can poll for responses. It also makes this the
/// wrong call for a socket with a write timeout, whose expiry Linux
/// reports as `WouldBlock`: the service writes its replies with
/// `write_all` instead.
///
/// # Errors
///
/// Any other I/O error, including a peer that stopped reading
/// (`WriteZero`).
pub fn write_frame(w: &mut impl std::io::Write, body: &[u8]) -> std::io::Result<()> {
    let framed = frame(body);
    let mut rest: &[u8] = &framed;
    while !rest.is_empty() {
        match w.write(rest) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => rest = rest.get(n..).unwrap_or(&[]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::yield_now();
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// An accumulating frame splitter for byte-stream transports: feed it
/// whatever the socket produced, pop complete frame bodies.
#[derive(Debug, Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
    start: usize,
}

impl FrameBuf {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw bytes read from the transport.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Compact lazily so long sessions don't grow without bound.
        if self.start > 0 && self.start >= self.buf.len() / 2 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete frame body, `Ok(None)` when more bytes are
    /// needed.
    ///
    /// # Errors
    ///
    /// [`ProtoError::Oversize`] when the length prefix exceeds
    /// [`MAX_FRAME_BYTES`]; the stream is then unrecoverable.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, ProtoError> {
        let avail = self.buf.get(self.start..).unwrap_or(&[]);
        let Some(prefix) = avail.get(..4) else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(prefix.try_into().unwrap_or([0; 4])) as usize;
        if len > MAX_FRAME_BYTES {
            return Err(ProtoError::Oversize(len));
        }
        let Some(body) = avail.get(4..4 + len) else {
            return Ok(None);
        };
        let body = body.to_vec();
        self.start += 4 + len;
        Ok(Some(body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_recover() -> RecoverRequest {
        RecoverRequest {
            id: 42,
            topo: 3,
            region: RegionSpec {
                cx: 1017.25,
                cy: -3.5,
                radius: 211.0,
            },
            initiator: 7,
            failed_link: 19,
            scheme: 0,
            dests: vec![1, 2, 30],
        }
    }

    fn sample_request() -> Request {
        Request::Recover(sample_recover())
    }

    fn sample_response() -> Response {
        Response::Recover(RecoverResponse {
            id: 42,
            service_micros: 137,
            results: vec![
                DestResult {
                    dest: 1,
                    outcome: Outcome::Delivered,
                    cost: 12,
                    route: vec![7, 8, 1],
                },
                DestResult {
                    dest: 2,
                    outcome: Outcome::HitFailure { at_link: 5 },
                    cost: 9,
                    route: vec![7, 2],
                },
                DestResult {
                    dest: 30,
                    outcome: Outcome::NoPath,
                    cost: 0,
                    route: vec![],
                },
            ],
        })
    }

    #[test]
    fn requests_round_trip() {
        for req in [sample_request(), Request::Shutdown] {
            assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);
        }
    }

    #[test]
    fn scheme_selectors_round_trip_via_v2() {
        let base = sample_recover();
        for scheme in [1u8, 2, 3, 4, 250] {
            let req = Request::Recover(RecoverRequest {
                scheme,
                ..base.clone()
            });
            let body = encode_request(&req);
            assert_eq!(body[0], TAG_RECOVER_REQ_V2);
            assert_eq!(decode_request(&body).unwrap(), req);
        }
    }

    #[test]
    fn scheme_zero_is_wire_compatible_with_v1() {
        // A scheme-0 request must encode as a byte-identical v1 frame, so
        // pre-scheme servers keep answering and pre-scheme captures keep
        // decoding. The v1 body is reconstructed field-by-field here: if
        // the v1 layout ever drifts, this fails.
        let r = sample_recover();
        let body = encode_request(&Request::Recover(r.clone()));
        let mut v1 = vec![TAG_RECOVER_REQ];
        v1.extend_from_slice(&r.id.to_le_bytes());
        v1.extend_from_slice(&r.topo.to_le_bytes());
        v1.extend_from_slice(&r.region.cx.to_bits().to_le_bytes());
        v1.extend_from_slice(&r.region.cy.to_bits().to_le_bytes());
        v1.extend_from_slice(&r.region.radius.to_bits().to_le_bytes());
        v1.extend_from_slice(&r.initiator.to_le_bytes());
        v1.extend_from_slice(&r.failed_link.to_le_bytes());
        put_u32_list(&mut v1, &r.dests);
        assert_eq!(body, v1);
        // And a raw v1 frame decodes to scheme 0.
        let Request::Recover(back) = decode_request(&v1).unwrap() else {
            panic!("tag changed")
        };
        assert_eq!(back.scheme, 0);
    }

    #[test]
    fn responses_round_trip() {
        let cases = [
            sample_response(),
            Response::Error {
                id: 9,
                error: ServeError::BadRegion,
            },
            Response::ShuttingDown,
        ];
        for resp in cases {
            assert_eq!(decode_response(&encode_response(&resp)).unwrap(), resp);
        }
    }

    #[test]
    fn region_bits_survive_the_wire() {
        let spec = RegionSpec {
            cx: 0.1 + 0.2, // not exactly representable; bits must survive
            cy: f64::MIN_POSITIVE,
            radius: 299.999999999,
        };
        let req = Request::Recover(RecoverRequest {
            id: 0,
            topo: 0,
            region: spec,
            initiator: 0,
            failed_link: 0,
            scheme: 0,
            dests: vec![],
        });
        let Request::Recover(back) = decode_request(&encode_request(&req)).unwrap() else {
            panic!("tag changed")
        };
        assert_eq!(back.region.key(), spec.key());
    }

    #[test]
    fn truncations_and_bad_tags_are_errors_not_panics() {
        let body = encode_request(&sample_request());
        for cut in 0..body.len() {
            let err = decode_request(&body[..cut]).unwrap_err();
            assert!(matches!(
                err,
                ProtoError::Truncated | ProtoError::BadTag(_) | ProtoError::TrailingBytes
            ));
        }
        assert_eq!(decode_request(&[99]), Err(ProtoError::BadTag(99)));
        let mut trailing = body.clone();
        trailing.push(0);
        assert_eq!(decode_request(&trailing), Err(ProtoError::TrailingBytes));
    }

    #[test]
    fn hostile_list_count_cannot_force_allocation() {
        // A Recover request whose dest count claims u32::MAX entries.
        let mut body = encode_request(&Request::Recover(RecoverRequest {
            id: 1,
            topo: 0,
            region: RegionSpec {
                cx: 0.0,
                cy: 0.0,
                radius: 1.0,
            },
            initiator: 0,
            failed_link: 0,
            scheme: 0,
            dests: vec![],
        }));
        let n = body.len();
        body[n - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_request(&body), Err(ProtoError::Truncated));
    }

    #[test]
    fn frame_buf_reassembles_split_frames() {
        let bodies = [
            encode_request(&sample_request()),
            encode_request(&Request::Shutdown),
        ];
        let mut wire = Vec::new();
        for b in &bodies {
            wire.extend_from_slice(&frame(b));
        }
        // Feed the stream one byte at a time.
        let mut fb = FrameBuf::new();
        let mut got = Vec::new();
        for &byte in &wire {
            fb.extend(&[byte]);
            while let Some(body) = fb.next_frame().unwrap() {
                got.push(body);
            }
        }
        assert_eq!(got, bodies);
        assert_eq!(fb.next_frame().unwrap(), None);
    }

    #[test]
    fn frame_buf_rejects_oversize_prefixes() {
        let mut fb = FrameBuf::new();
        fb.extend(&(MAX_FRAME_BYTES as u32 + 1).to_le_bytes());
        assert!(matches!(fb.next_frame(), Err(ProtoError::Oversize(_))));
    }

    #[test]
    fn region_spec_validation_rejects_hostile_floats() {
        let bad = [
            RegionSpec {
                cx: f64::NAN,
                cy: 0.0,
                radius: 1.0,
            },
            RegionSpec {
                cx: 0.0,
                cy: f64::INFINITY,
                radius: 1.0,
            },
            RegionSpec {
                cx: 0.0,
                cy: 0.0,
                radius: -1.0,
            },
            RegionSpec {
                cx: 0.0,
                cy: 0.0,
                radius: f64::NAN,
            },
        ];
        for spec in bad {
            assert!(!spec.is_valid());
            assert!(spec.to_region().is_none());
        }
        let ok = RegionSpec {
            cx: 100.0,
            cy: 50.0,
            radius: 0.0,
        };
        assert!(ok.to_region().is_some());
    }
}
