//! # tfhpc-proto
//!
//! A compact, protobuf-style binary wire format. TensorFlow serializes
//! its dataflow graphs, checkpoints and RPC payloads with Protocol
//! Buffers; this crate plays the same role for `tfhpc`:
//!
//! * varint / ZigZag integer encoding ([`wire`])
//! * tagged, length-delimited fields with forward-compatible skipping
//!   ([`Encoder`] / [`Decoder`])
//! * a [`Message`] trait for encode/decode round-trips
//! * the 2 GB message-size ceiling the paper calls out as a real
//!   TensorFlow graph limitation ([`MAX_MESSAGE_BYTES`]).

pub mod frame;
pub mod wire;

use bytes::{BufMut, BytesMut};
use std::fmt;

/// Protocol Buffers (and TensorFlow GraphDef) limit any single message
/// to 2 GiB. The paper discusses hitting this with unrolled loops; we
/// enforce the same ceiling when serializing graphs.
pub const MAX_MESSAGE_BYTES: usize = 2 * 1024 * 1024 * 1024;

/// Errors produced while encoding or decoding messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// Input ended in the middle of a value.
    Truncated,
    /// A varint used more than 10 bytes.
    VarintOverflow,
    /// Wire type byte was not one of the known encodings.
    InvalidWireType(u8),
    /// A message exceeded [`MAX_MESSAGE_BYTES`].
    MessageTooLarge(usize),
    /// A required field was absent or held an invalid value.
    InvalidField(&'static str),
    /// A UTF-8 string field held invalid bytes.
    InvalidUtf8,
    /// A checksummed frame failed verification: the payload was
    /// bit-flipped, truncated or otherwise altered after sealing.
    ChecksumMismatch,
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "input truncated"),
            ProtoError::VarintOverflow => write!(f, "varint longer than 10 bytes"),
            ProtoError::InvalidWireType(w) => write!(f, "invalid wire type {w}"),
            ProtoError::MessageTooLarge(n) => {
                write!(f, "message of {n} bytes exceeds the 2 GB protobuf limit")
            }
            ProtoError::InvalidField(name) => write!(f, "invalid or missing field `{name}`"),
            ProtoError::InvalidUtf8 => write!(f, "string field is not valid UTF-8"),
            ProtoError::ChecksumMismatch => {
                write!(f, "frame checksum mismatch (corrupted or truncated data)")
            }
        }
    }
}

impl std::error::Error for ProtoError {}

/// Wire encodings, mirroring protobuf's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireType {
    /// Base-128 varint.
    Varint = 0,
    /// Little-endian 8-byte scalar.
    Fixed64 = 1,
    /// Length-prefixed byte payload (strings, bytes, sub-messages, packed arrays).
    LengthDelimited = 2,
    /// Little-endian 4-byte scalar.
    Fixed32 = 5,
}

impl WireType {
    fn from_u8(v: u8) -> Result<WireType, ProtoError> {
        match v {
            0 => Ok(WireType::Varint),
            1 => Ok(WireType::Fixed64),
            2 => Ok(WireType::LengthDelimited),
            5 => Ok(WireType::Fixed32),
            other => Err(ProtoError::InvalidWireType(other)),
        }
    }
}

/// Streaming encoder writing tagged fields into a growable buffer.
pub struct Encoder {
    buf: BytesMut,
}

impl Encoder {
    /// Fresh encoder with a small initial capacity.
    pub fn new() -> Self {
        Encoder {
            buf: BytesMut::with_capacity(128),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Finish and return the encoded bytes, enforcing the 2 GB limit.
    pub fn finish(self) -> Result<Vec<u8>, ProtoError> {
        if self.buf.len() > MAX_MESSAGE_BYTES {
            return Err(ProtoError::MessageTooLarge(self.buf.len()));
        }
        Ok(self.buf.into())
    }

    fn tag(&mut self, field: u32, wt: WireType) {
        wire::put_uvarint(&mut self.buf, ((field as u64) << 3) | wt as u64);
    }

    /// Unsigned varint field.
    pub fn put_u64(&mut self, field: u32, v: u64) {
        self.tag(field, WireType::Varint);
        wire::put_uvarint(&mut self.buf, v);
    }

    /// Signed (ZigZag) varint field.
    pub fn put_i64(&mut self, field: u32, v: i64) {
        self.tag(field, WireType::Varint);
        wire::put_uvarint(&mut self.buf, wire::zigzag_encode(v));
    }

    /// Boolean varint field.
    pub fn put_bool(&mut self, field: u32, v: bool) {
        self.put_u64(field, v as u64);
    }

    /// 64-bit float field.
    pub fn put_f64(&mut self, field: u32, v: f64) {
        self.tag(field, WireType::Fixed64);
        self.buf.put_u64_le(v.to_bits());
    }

    /// 32-bit float field.
    pub fn put_f32(&mut self, field: u32, v: f32) {
        self.tag(field, WireType::Fixed32);
        self.buf.put_u32_le(v.to_bits());
    }

    /// Raw bytes field.
    pub fn put_bytes(&mut self, field: u32, v: &[u8]) {
        self.tag(field, WireType::LengthDelimited);
        wire::put_uvarint(&mut self.buf, v.len() as u64);
        self.buf.put_slice(v);
    }

    /// UTF-8 string field.
    pub fn put_str(&mut self, field: u32, v: &str) {
        self.put_bytes(field, v.as_bytes());
    }

    /// Nested message field.
    pub fn put_message<M: Message>(&mut self, field: u32, m: &M) -> Result<(), ProtoError> {
        let mut inner = Encoder::new();
        m.encode(&mut inner)?;
        let bytes = inner.finish()?;
        self.put_bytes(field, &bytes);
        Ok(())
    }

    /// Packed array of f32 (little-endian), as protobuf packed repeated.
    /// On little-endian hosts the element bytes already are wire order,
    /// so the whole payload is appended in one bulk slice copy instead
    /// of a per-element bits round-trip.
    pub fn put_packed_f32(&mut self, field: u32, vs: &[f32]) {
        self.tag(field, WireType::LengthDelimited);
        wire::put_uvarint(&mut self.buf, (vs.len() * 4) as u64);
        #[cfg(target_endian = "little")]
        {
            // SAFETY: f32 has no padding and every bit pattern is a
            // valid byte sequence; u8 has alignment 1.
            let bytes =
                unsafe { std::slice::from_raw_parts(vs.as_ptr() as *const u8, vs.len() * 4) };
            self.buf.put_slice(bytes);
        }
        #[cfg(not(target_endian = "little"))]
        for v in vs {
            self.buf.put_u32_le(v.to_bits());
        }
    }

    /// Packed array of f64 (little-endian); bulk-copied like
    /// [`Encoder::put_packed_f32`].
    pub fn put_packed_f64(&mut self, field: u32, vs: &[f64]) {
        self.tag(field, WireType::LengthDelimited);
        wire::put_uvarint(&mut self.buf, (vs.len() * 8) as u64);
        #[cfg(target_endian = "little")]
        {
            // SAFETY: as in put_packed_f32.
            let bytes =
                unsafe { std::slice::from_raw_parts(vs.as_ptr() as *const u8, vs.len() * 8) };
            self.buf.put_slice(bytes);
        }
        #[cfg(not(target_endian = "little"))]
        for v in vs {
            self.buf.put_u64_le(v.to_bits());
        }
    }

    /// Packed array of u64 varints.
    pub fn put_packed_u64(&mut self, field: u32, vs: &[u64]) {
        let mut tmp = BytesMut::new();
        for v in vs {
            wire::put_uvarint(&mut tmp, *v);
        }
        self.tag(field, WireType::LengthDelimited);
        wire::put_uvarint(&mut self.buf, tmp.len() as u64);
        self.buf.put_slice(&tmp);
    }
}

impl Default for Encoder {
    fn default() -> Self {
        Self::new()
    }
}

/// One decoded field: its number and value view.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue<'a> {
    /// Varint payload (unsigned; use [`wire::zigzag_decode`] for signed).
    Varint(u64),
    /// 8-byte little-endian payload.
    Fixed64(u64),
    /// 4-byte little-endian payload.
    Fixed32(u32),
    /// Length-delimited payload.
    Bytes(&'a [u8]),
}

impl<'a> FieldValue<'a> {
    /// Interpret as u64 (varint or fixed).
    pub fn as_u64(&self) -> Result<u64, ProtoError> {
        match self {
            FieldValue::Varint(v) => Ok(*v),
            FieldValue::Fixed64(v) => Ok(*v),
            FieldValue::Fixed32(v) => Ok(*v as u64),
            FieldValue::Bytes(_) => Err(ProtoError::InvalidField("expected scalar")),
        }
    }

    /// Interpret as ZigZag-encoded i64.
    pub fn as_i64(&self) -> Result<i64, ProtoError> {
        Ok(wire::zigzag_decode(self.as_u64()?))
    }

    /// Interpret as bool.
    pub fn as_bool(&self) -> Result<bool, ProtoError> {
        Ok(self.as_u64()? != 0)
    }

    /// Interpret as f64 from fixed64 bits.
    pub fn as_f64(&self) -> Result<f64, ProtoError> {
        match self {
            FieldValue::Fixed64(v) => Ok(f64::from_bits(*v)),
            _ => Err(ProtoError::InvalidField("expected fixed64")),
        }
    }

    /// Interpret as f32 from fixed32 bits.
    pub fn as_f32(&self) -> Result<f32, ProtoError> {
        match self {
            FieldValue::Fixed32(v) => Ok(f32::from_bits(*v)),
            _ => Err(ProtoError::InvalidField("expected fixed32")),
        }
    }

    /// Interpret as raw bytes.
    pub fn as_bytes(&self) -> Result<&'a [u8], ProtoError> {
        match self {
            FieldValue::Bytes(b) => Ok(b),
            _ => Err(ProtoError::InvalidField("expected bytes")),
        }
    }

    /// Interpret as UTF-8 string.
    pub fn as_str(&self) -> Result<&'a str, ProtoError> {
        std::str::from_utf8(self.as_bytes()?).map_err(|_| ProtoError::InvalidUtf8)
    }

    /// Interpret as packed f32 array. On little-endian hosts the wire
    /// payload is byte-copied straight into the result vector (one
    /// `memcpy`, no per-element decode or intermediate buffer).
    pub fn as_packed_f32(&self) -> Result<Vec<f32>, ProtoError> {
        let b = self.as_bytes()?;
        if b.len() % 4 != 0 {
            return Err(ProtoError::Truncated);
        }
        #[cfg(target_endian = "little")]
        {
            let n = b.len() / 4;
            let mut out: Vec<f32> = Vec::with_capacity(n);
            // SAFETY: destination capacity holds exactly `n` f32s; the
            // LE wire bytes are each element's in-memory bit pattern.
            unsafe {
                std::ptr::copy_nonoverlapping(b.as_ptr(), out.as_mut_ptr() as *mut u8, b.len());
                out.set_len(n);
            }
            Ok(out)
        }
        #[cfg(not(target_endian = "little"))]
        Ok(b.chunks_exact(4)
            .map(|c| f32::from_bits(u32::from_le_bytes([c[0], c[1], c[2], c[3]])))
            .collect())
    }

    /// Interpret as packed f64 array; bulk-copied like
    /// [`FieldValue::as_packed_f32`].
    pub fn as_packed_f64(&self) -> Result<Vec<f64>, ProtoError> {
        let b = self.as_bytes()?;
        if b.len() % 8 != 0 {
            return Err(ProtoError::Truncated);
        }
        #[cfg(target_endian = "little")]
        {
            let n = b.len() / 8;
            let mut out: Vec<f64> = Vec::with_capacity(n);
            // SAFETY: as in as_packed_f32.
            unsafe {
                std::ptr::copy_nonoverlapping(b.as_ptr(), out.as_mut_ptr() as *mut u8, b.len());
                out.set_len(n);
            }
            Ok(out)
        }
        #[cfg(not(target_endian = "little"))]
        Ok(b.chunks_exact(8)
            .map(|c| {
                f64::from_bits(u64::from_le_bytes([
                    c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7],
                ]))
            })
            .collect())
    }

    /// Interpret as packed u64 varint array.
    pub fn as_packed_u64(&self) -> Result<Vec<u64>, ProtoError> {
        let mut b = self.as_bytes()?;
        let mut out = Vec::new();
        while !b.is_empty() {
            let (v, rest) = wire::get_uvarint(b)?;
            out.push(v);
            b = rest;
        }
        Ok(out)
    }
}

/// Streaming decoder over an encoded byte slice.
pub struct Decoder<'a> {
    rest: &'a [u8],
}

impl<'a> Decoder<'a> {
    /// Decode over `bytes`, enforcing the 2 GB limit.
    pub fn new(bytes: &'a [u8]) -> Result<Self, ProtoError> {
        if bytes.len() > MAX_MESSAGE_BYTES {
            return Err(ProtoError::MessageTooLarge(bytes.len()));
        }
        Ok(Decoder { rest: bytes })
    }

    /// Remaining undecoded bytes.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// Read the next `(field_number, value)` pair, or `None` at end.
    pub fn next_field(&mut self) -> Result<Option<(u32, FieldValue<'a>)>, ProtoError> {
        if self.rest.is_empty() {
            return Ok(None);
        }
        let (key, rest) = wire::get_uvarint(self.rest)?;
        self.rest = rest;
        let field = (key >> 3) as u32;
        let wt = WireType::from_u8((key & 7) as u8)?;
        let value = match wt {
            WireType::Varint => {
                let (v, rest) = wire::get_uvarint(self.rest)?;
                self.rest = rest;
                FieldValue::Varint(v)
            }
            WireType::Fixed64 => {
                if self.rest.len() < 8 {
                    return Err(ProtoError::Truncated);
                }
                let (head, rest) = self.rest.split_at(8);
                self.rest = rest;
                FieldValue::Fixed64(u64::from_le_bytes(head.try_into().unwrap()))
            }
            WireType::Fixed32 => {
                if self.rest.len() < 4 {
                    return Err(ProtoError::Truncated);
                }
                let (head, rest) = self.rest.split_at(4);
                self.rest = rest;
                FieldValue::Fixed32(u32::from_le_bytes(head.try_into().unwrap()))
            }
            WireType::LengthDelimited => {
                let (len, rest) = wire::get_uvarint(self.rest)?;
                let len = len as usize;
                if rest.len() < len {
                    return Err(ProtoError::Truncated);
                }
                let (head, rest) = rest.split_at(len);
                self.rest = rest;
                FieldValue::Bytes(head)
            }
        };
        Ok(Some((field, value)))
    }
}

/// Types serializable in the tagged wire format.
pub trait Message: Sized {
    /// Write all fields into `enc`.
    fn encode(&self, enc: &mut Encoder) -> Result<(), ProtoError>;
    /// Rebuild from encoded bytes. Unknown fields must be skipped.
    fn decode(bytes: &[u8]) -> Result<Self, ProtoError>;

    /// Encode to a fresh byte vector.
    fn to_bytes(&self) -> Result<Vec<u8>, ProtoError> {
        let mut enc = Encoder::new();
        self.encode(&mut enc)?;
        enc.finish()
    }

    /// Encode into a CRC32C-checksummed frame ([`frame::seal`]).
    fn to_framed_bytes(&self) -> Result<Vec<u8>, ProtoError> {
        Ok(frame::seal(&self.to_bytes()?))
    }

    /// Verify a checksummed frame and decode the payload within.
    fn decode_framed(bytes: &[u8]) -> Result<Self, ProtoError> {
        Self::decode(frame::open(bytes)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq, Default)]
    struct Sample {
        id: u64,
        delta: i64,
        name: String,
        weights: Vec<f32>,
        flag: bool,
        nested: Option<Box<Sample>>,
    }

    impl Message for Sample {
        fn encode(&self, enc: &mut Encoder) -> Result<(), ProtoError> {
            enc.put_u64(1, self.id);
            enc.put_i64(2, self.delta);
            enc.put_str(3, &self.name);
            enc.put_packed_f32(4, &self.weights);
            enc.put_bool(5, self.flag);
            if let Some(n) = &self.nested {
                enc.put_message(6, n.as_ref())?;
            }
            Ok(())
        }

        fn decode(bytes: &[u8]) -> Result<Self, ProtoError> {
            let mut d = Decoder::new(bytes)?;
            let mut out = Sample::default();
            while let Some((field, value)) = d.next_field()? {
                match field {
                    1 => out.id = value.as_u64()?,
                    2 => out.delta = value.as_i64()?,
                    3 => out.name = value.as_str()?.to_string(),
                    4 => out.weights = value.as_packed_f32()?,
                    5 => out.flag = value.as_bool()?,
                    6 => out.nested = Some(Box::new(Sample::decode(value.as_bytes()?)?)),
                    _ => {} // forward compatibility: skip unknown
                }
            }
            Ok(out)
        }
    }

    #[test]
    fn roundtrip_message() {
        let msg = Sample {
            id: 42,
            delta: -7,
            name: "tile_1_2.npy".into(),
            weights: vec![1.5, -2.25, 0.0, f32::MAX],
            flag: true,
            nested: Some(Box::new(Sample {
                id: 7,
                delta: i64::MIN,
                name: "ps".into(),
                weights: vec![],
                flag: false,
                nested: None,
            })),
        };
        let bytes = msg.to_bytes().unwrap();
        let back = Sample::decode(&bytes).unwrap();
        assert_eq!(msg, back);
    }

    #[test]
    fn unknown_fields_are_skipped() {
        let mut enc = Encoder::new();
        enc.put_u64(1, 9);
        enc.put_str(99, "future field");
        enc.put_f64(98, 3.25);
        let bytes = enc.finish().unwrap();
        let back = Sample::decode(&bytes).unwrap();
        assert_eq!(back.id, 9);
    }

    #[test]
    fn truncated_input_errors() {
        let msg = Sample {
            id: 1,
            name: "x".into(),
            ..Default::default()
        };
        let bytes = msg.to_bytes().unwrap();
        for cut in 1..bytes.len() {
            // Every strict prefix must either decode to *something* (if it
            // ends on a field boundary) or produce Truncated — never panic.
            let _ = Sample::decode(&bytes[..cut]);
        }
        assert_eq!(
            Sample::decode(&bytes[..bytes.len() - 1]),
            Err(ProtoError::Truncated)
        );
    }

    #[test]
    fn packed_arrays_roundtrip() {
        let mut enc = Encoder::new();
        enc.put_packed_f64(1, &[1.0, -2.5, f64::EPSILON]);
        enc.put_packed_u64(2, &[0, 1, 127, 128, u64::MAX]);
        let bytes = enc.finish().unwrap();
        let mut d = Decoder::new(&bytes).unwrap();
        let (f, v) = d.next_field().unwrap().unwrap();
        assert_eq!(f, 1);
        assert_eq!(v.as_packed_f64().unwrap(), vec![1.0, -2.5, f64::EPSILON]);
        let (f, v) = d.next_field().unwrap().unwrap();
        assert_eq!(f, 2);
        assert_eq!(v.as_packed_u64().unwrap(), vec![0, 1, 127, 128, u64::MAX]);
        assert!(d.next_field().unwrap().is_none());
    }

    #[test]
    fn invalid_wire_type_rejected() {
        // key = field 1, wire type 3 (deprecated group start)
        let bytes = [(1 << 3) | 3u8];
        let mut d = Decoder::new(&bytes).unwrap();
        assert_eq!(d.next_field(), Err(ProtoError::InvalidWireType(3)));
    }

    #[test]
    fn f32_f64_bit_exact() {
        let mut enc = Encoder::new();
        enc.put_f32(1, f32::NAN);
        enc.put_f64(2, -0.0);
        let bytes = enc.finish().unwrap();
        let mut d = Decoder::new(&bytes).unwrap();
        let (_, v) = d.next_field().unwrap().unwrap();
        assert!(v.as_f32().unwrap().is_nan());
        let (_, v) = d.next_field().unwrap().unwrap();
        assert!(v.as_f64().unwrap().is_sign_negative());
    }
}
