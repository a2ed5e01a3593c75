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

use crate::proto::{
    profile_code, profile_from_code, put_model, put_prelude, put_string, read_model,
    read_prelude, read_string, read_variant, Profile, ProtoError,
};
use primer_core::wire::{put_phase_cost, put_traffic, read_phase_cost, read_traffic};
use primer_math::codec::{decode, put_u32, put_u64};
use primer_core::{PhaseCost, ProtocolVariant};
use primer_net::TrafficSnapshot;
use primer_nn::TransformerConfig;

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

/// Serializes a suspend file.
pub(crate) fn encode_file(header: &SuspendHeader, image: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(image.len() + 256);
    put_prelude(&mut out, FILE_MAGIC, FILE_VERSION);
    put_u64(&mut out, header.session_id);
    out.push(profile_code(header.profile));
    put_u64(&mut out, header.weight_seed);
    put_model(&mut out, &header.model);
    put_string(&mut out, &header.fingerprint);
    out.push(header.variant.code());
    put_u32(&mut out, header.pool);
    put_u64(&mut out, header.booked);
    put_u64(&mut out, header.served);
    put_phase_cost(&mut out, &header.offline);
    put_phase_cost(&mut out, &header.online);
    put_traffic(&mut out, &header.traffic);
    put_u32(&mut out, image.len() as u32);
    out.extend_from_slice(image);
    out
}

/// Parses a suspend file into its header and core image bytes.
///
/// # Errors
///
/// [`ProtoError`] on bad magic, an unknown envelope version, truncation,
/// or bytes after the image.
pub(crate) fn decode_file(bytes: &[u8]) -> Result<(SuspendHeader, Vec<u8>), ProtoError> {
    decode(bytes, |r| {
        read_prelude(r, FILE_MAGIC, FILE_VERSION)?;
        let header = SuspendHeader {
            session_id: r.u64("session id")?,
            profile: profile_from_code(r.u8("profile")?)?,
            weight_seed: r.u64("weight seed")?,
            model: read_model(r)?,
            fingerprint: read_string(r, "fingerprint")?,
            variant: read_variant(r)?,
            pool: r.u32("pool")?,
            booked: r.u64("booked")?,
            served: r.u64("served")?,
            offline: read_phase_cost(r)?,
            online: read_phase_cost(r)?,
            traffic: read_traffic(r)?,
        };
        let image_len = r.u32("image length")? as usize;
        Ok((header, r.take(image_len, "image")?.to_vec()))
    })
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
    use std::time::Duration;

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

    /// The envelope's bytes, pinned: a codec refactor must not move one.
    #[test]
    fn file_matches_golden_bytes() {
        let h = SuspendHeader {
            model: crate::proto::tests::golden_model(),
            fingerprint: "oooo/dd".into(),
            ..header()
        };
        assert_eq!(
            crate::proto::tests::hex(&encode_file(&h, b"img")),
            concat!(
                "50525350010000002a0000000000000000070000000000000006000000676f6c64656e",
                "2000000001000000080000000200000004000000200000000300000007000000",
                "6f6f6f6f2f64640302000000040000000000000002000000000000000b000000000000",
                "00160000000000000003000000000000002c0000000000000037000000000000000600",
                "0000000000000100000000000000020000000000000003000000000000000400000000",
                "00000003000000696d67",
            )
        );
    }

    #[test]
    fn trailing_bytes_and_bad_utf8_are_malformed() {
        let mut bytes = encode_file(&header(), b"img");
        bytes.push(0);
        assert_eq!(decode_file(&bytes), Err(ProtoError::Malformed("trailing bytes")));
        let mut bytes = encode_file(&header(), b"img");
        // magic, version, session id, profile, weight seed, name length.
        bytes[4 + 4 + 8 + 1 + 8 + 4] = 0xff;
        assert_eq!(decode_file(&bytes), Err(ProtoError::Malformed("string is not UTF-8")));
    }

    #[test]
    fn file_names_roundtrip() {
        assert_eq!(parse_file_name(&file_name(17)), Some(17));
        assert_eq!(parse_file_name("session-x.suspend"), None);
        assert_eq!(parse_file_name("other.bin"), None);
    }
}
