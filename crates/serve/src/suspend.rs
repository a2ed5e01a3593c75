//! On-disk format for suspended serving sessions.
//!
//! A suspend file is the serving-layer envelope around the engine's
//! [`primer_core::ServerSuspendImage`]: the header pins everything the
//! server must re-validate at resume (model identity, numeric profile,
//! layout fingerprint, negotiated pool, progress), followed by the raw
//! core image bytes (keys + unconsumed offline bundles).
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! [magic "PRSP"] [version u32 = 1]
//! [session_id u64] [profile u8] [weight_seed u64]
//! [model: name string, 7 dims u32]
//! [layout fingerprint string] [variant u8] [pool u32]
//! [booked u64] [served u64]
//! [offline PhaseCost: ns/bytes/msgs u64 ×3]
//! [online  PhaseCost: ns/bytes/msgs u64 ×3]
//! [traffic u64 ×4]
//! [core image bytes, length-prefixed u32]
//! ```
//!
//! **Consume-once contract:** the core image holds one-time mask
//! material — replaying it would reuse masks across two serving runs,
//! which is exactly what the privacy argument forbids. The server
//! therefore deletes the file *before* serving a resumed session, and a
//! resume that fails after the delete is a failed session, not a
//! retryable one.

use crate::proto::{profile_code, profile_from_code, put_string, put_u32, put_u64, Cursor, Profile, ProtoError};
use primer_core::{PhaseCost, ProtocolVariant};
use primer_net::TrafficSnapshot;
use primer_nn::TransformerConfig;
use std::time::Duration;

/// Magic prefix of a suspend file.
pub(crate) const FILE_MAGIC: [u8; 4] = *b"PRSP";

/// Version of the envelope (the core image carries its own version).
pub(crate) const FILE_VERSION: u32 = 1;

/// Everything the resume path re-validates before touching the image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SuspendHeader {
    pub session_id: u64,
    pub profile: Profile,
    pub weight_seed: u64,
    pub model: TransformerConfig,
    /// Layout-plan fingerprint the session's plane was built under; a
    /// server rebuilt with a different layout selector between suspend
    /// and resume is a config mismatch, not a silently different wire
    /// schedule.
    pub fingerprint: String,
    pub variant: ProtocolVariant,
    /// The pool negotiated at the original handshake (production batch
    /// size shapes the wire schedule — it is not renegotiated).
    pub pool: u32,
    /// Queries the original hello booked.
    pub booked: u64,
    /// Queries served before suspension.
    pub served: u64,
    /// Accumulated offline phase cost at suspension.
    pub offline: PhaseCost,
    /// Accumulated online phase cost at suspension.
    pub online: PhaseCost,
    /// Accumulated per-query traffic at suspension.
    pub traffic: TrafficSnapshot,
}

fn put_phase_cost(out: &mut Vec<u8>, p: &PhaseCost) {
    put_u64(out, p.compute.as_nanos() as u64);
    put_u64(out, p.bytes);
    put_u64(out, p.messages);
}

fn get_phase_cost(c: &mut Cursor<'_>) -> Result<PhaseCost, ProtoError> {
    Ok(PhaseCost {
        compute: Duration::from_nanos(c.u64()?),
        bytes: c.u64()?,
        messages: c.u64()?,
    })
}

/// Serializes a suspend file.
pub(crate) fn encode_file(header: &SuspendHeader, image: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(image.len() + 256);
    out.extend_from_slice(&FILE_MAGIC);
    put_u32(&mut out, FILE_VERSION);
    put_u64(&mut out, header.session_id);
    out.push(profile_code(header.profile));
    put_u64(&mut out, header.weight_seed);
    let m = &header.model;
    put_string(&mut out, &m.name);
    for dim in [m.vocab, m.n_blocks, m.d_model, m.n_heads, m.n_tokens, m.d_ff, m.n_classes] {
        put_u32(&mut out, dim as u32);
    }
    put_string(&mut out, &header.fingerprint);
    out.push(crate::proto::variant_code(header.variant));
    put_u32(&mut out, header.pool);
    put_u64(&mut out, header.booked);
    put_u64(&mut out, header.served);
    put_phase_cost(&mut out, &header.offline);
    put_phase_cost(&mut out, &header.online);
    for v in [
        header.traffic.c2s_bytes,
        header.traffic.s2c_bytes,
        header.traffic.c2s_messages,
        header.traffic.s2c_messages,
    ] {
        put_u64(&mut out, v);
    }
    put_u32(&mut out, image.len() as u32);
    out.extend_from_slice(image);
    out
}

/// Parses a suspend file into its header and core image bytes.
///
/// # Errors
///
/// [`ProtoError`] on bad magic, an unknown envelope version, or
/// truncation.
pub(crate) fn decode_file(bytes: &[u8]) -> Result<(SuspendHeader, Vec<u8>), ProtoError> {
    let mut c = Cursor::new(bytes);
    let mut magic = [0u8; 4];
    magic.copy_from_slice(c.take(4)?);
    if magic != FILE_MAGIC {
        return Err(ProtoError::BadMagic);
    }
    let version = c.u32()?;
    if version != FILE_VERSION {
        return Err(ProtoError::VersionMismatch { theirs: version });
    }
    let session_id = c.u64()?;
    let profile = profile_from_code(c.u8()?)?;
    let weight_seed = c.u64()?;
    let name = c.string()?;
    let mut dims = [0usize; 7];
    for d in &mut dims {
        *d = c.u32()? as usize;
    }
    let [vocab, n_blocks, d_model, n_heads, n_tokens, d_ff, n_classes] = dims;
    let model = TransformerConfig { name, vocab, n_blocks, d_model, n_heads, n_tokens, d_ff, n_classes };
    let fingerprint = c.string()?;
    let variant = crate::proto::variant_from_code(c.u8()?)?;
    let pool = c.u32()?;
    let booked = c.u64()?;
    let served = c.u64()?;
    let offline = get_phase_cost(&mut c)?;
    let online = get_phase_cost(&mut c)?;
    let traffic = TrafficSnapshot {
        c2s_bytes: c.u64()?,
        s2c_bytes: c.u64()?,
        c2s_messages: c.u64()?,
        s2c_messages: c.u64()?,
    };
    let image_len = c.u32()? as usize;
    let image = c.take(image_len)?.to_vec();
    Ok((
        SuspendHeader {
            session_id,
            profile,
            weight_seed,
            model,
            fingerprint,
            variant,
            pool,
            booked,
            served,
            offline,
            online,
            traffic,
        },
        image,
    ))
}

/// The file name a session parks under.
pub(crate) fn file_name(session_id: u64) -> String {
    format!("session-{session_id}.suspend")
}

/// Parses a session id back out of a suspend file name (used at bind to
/// keep fresh session ids above every parked token).
pub(crate) fn parse_file_name(name: &str) -> Option<u64> {
    name.strip_prefix("session-")?.strip_suffix(".suspend")?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> SuspendHeader {
        SuspendHeader {
            session_id: 42,
            profile: Profile::Test,
            weight_seed: 7,
            model: TransformerConfig::test_tiny(),
            fingerprint: "qkv:d/ff:d".into(),
            variant: ProtocolVariant::Fpc,
            pool: 2,
            booked: 4,
            served: 2,
            offline: PhaseCost { compute: Duration::from_nanos(11), bytes: 22, messages: 3 },
            online: PhaseCost { compute: Duration::from_nanos(44), bytes: 55, messages: 6 },
            traffic: TrafficSnapshot {
                c2s_bytes: 1,
                s2c_bytes: 2,
                c2s_messages: 3,
                s2c_messages: 4,
            },
        }
    }

    #[test]
    fn file_roundtrip() {
        let h = header();
        let image = vec![9u8; 33];
        let bytes = encode_file(&h, &image);
        let (got_h, got_image) = decode_file(&bytes).expect("decode");
        assert_eq!(got_h, h);
        assert_eq!(got_image, image);
    }

    #[test]
    fn bad_magic_and_version_fail() {
        let mut bytes = encode_file(&header(), b"img");
        bytes[0] = b'X';
        assert_eq!(decode_file(&bytes), Err(ProtoError::BadMagic));
        let mut bytes2 = encode_file(&header(), b"img");
        bytes2[4] = 99;
        assert!(matches!(decode_file(&bytes2), Err(ProtoError::VersionMismatch { theirs: 99 })));
    }

    #[test]
    fn file_names_roundtrip() {
        assert_eq!(parse_file_name(&file_name(17)), Some(17));
        assert_eq!(parse_file_name("session-x.suspend"), None);
        assert_eq!(parse_file_name("other.bin"), None);
    }
}
