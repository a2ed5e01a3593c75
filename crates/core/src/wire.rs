//! Protocol flights and the engine's shared records, on the byte codec
//! of [`primer_math::codec`].
//!
//! The codec — the writers, the checked reader [`Rdr`], [`decode`] and
//! its [`WireError`] — lives in `primer_math` so the HE layer reads keys
//! and ciphertexts with the same cursor; `primer_he` converts a
//! [`WireError`] into [`HeError::Malformed`]. This module adds the
//! records the engine and the serving layer share (traffic snapshots,
//! phase costs, ciphertext batches, packed matrices) and frames them as
//! flights.
//!
//! The `send_*` / `recv_*` functions frame protocol flights on a
//! [`Transport`]: every receive is `Result`-typed, because flights
//! arrive from the network and truncated or forged bytes must fail the
//! *session* (the serving worker maps the error to a closed
//! connection), never the process.

use crate::packing::{Layout, Packing, PackedMatrix};
use crate::stats::PhaseCost;
use primer_he::{Ciphertext, GaloisKeys, HeContext, HeError};
use primer_math::codec::{decode, put_u32, put_u64, read_matz, write_matz, Rdr, WireError};
use primer_math::MatZ;
use primer_net::{TrafficSnapshot, Transport};
use std::time::Duration;

/// Appends a traffic snapshot as its four counters.
pub fn put_traffic(out: &mut Vec<u8>, t: &TrafficSnapshot) {
    for v in [t.c2s_bytes, t.s2c_bytes, t.c2s_messages, t.s2c_messages] {
        put_u64(out, v);
    }
}

/// Appends a phase cost as compute nanoseconds, bytes and messages.
pub fn put_phase_cost(out: &mut Vec<u8>, p: &PhaseCost) {
    for v in [p.compute.as_nanos() as u64, p.bytes, p.messages] {
        put_u64(out, v);
    }
}

/// Reads what [`put_traffic`] writes.
pub fn read_traffic(r: &mut Rdr) -> Result<TrafficSnapshot, WireError> {
    Ok(TrafficSnapshot {
        c2s_bytes: r.u64("traffic")?,
        s2c_bytes: r.u64("traffic")?,
        c2s_messages: r.u64("traffic")?,
        s2c_messages: r.u64("traffic")?,
    })
}

/// Reads what [`put_phase_cost`] writes.
pub fn read_phase_cost(r: &mut Rdr) -> Result<PhaseCost, WireError> {
    Ok(PhaseCost {
        compute: Duration::from_nanos(r.u64("phase compute")?),
        bytes: r.u64("phase bytes")?,
        messages: r.u64("phase messages")?,
    })
}

// ---- ciphertexts, packed matrices -----------------------------------------

pub(crate) fn write_cts(out: &mut Vec<u8>, cts: &[Ciphertext]) {
    put_u32(out, cts.len() as u32);
    for ct in cts {
        ct.write(out);
    }
}

/// The output grows one decoded ciphertext at a time, so a forged count
/// cannot trigger a huge up-front allocation.
pub(crate) fn read_cts(r: &mut Rdr, ctx: &HeContext) -> Result<Vec<Ciphertext>, HeError> {
    let count = r.u32("ciphertext count")?;
    (0..count).map(|_| Ciphertext::read(ctx, r)).collect()
}

fn packing_code(p: Packing) -> u8 {
    match p {
        Packing::FeatureBased => 0,
        Packing::TokensFirst => 1,
    }
}

fn packing_from_code(c: u8) -> Result<Packing, HeError> {
    match c {
        0 => Ok(Packing::FeatureBased),
        1 => Ok(Packing::TokensFirst),
        _ => Err(HeError::Malformed { what: "packing code" }),
    }
}

fn write_layout(out: &mut Vec<u8>, l: &Layout) {
    out.push(packing_code(l.packing));
    for v in [l.rows, l.cols, l.simd, l.pad, l.num_cts] {
        put_u32(out, v as u32);
    }
}

fn read_layout(r: &mut Rdr) -> Result<Layout, HeError> {
    Ok(Layout {
        packing: packing_from_code(r.u8("layout packing")?)?,
        rows: r.u32("layout rows")? as usize,
        cols: r.u32("layout cols")? as usize,
        simd: r.u32("layout simd")? as usize,
        pad: r.u32("layout pad")? as usize,
        num_cts: r.u32("layout num_cts")? as usize,
    })
}

/// A packed matrix with its layout (the suspend image's form; a flight
/// carries only the ciphertexts, see [`send_packed`]).
pub(crate) fn write_packed(out: &mut Vec<u8>, m: &PackedMatrix) {
    write_layout(out, &m.layout);
    write_cts(out, &m.cts);
}

pub(crate) fn read_packed(r: &mut Rdr, ctx: &HeContext) -> Result<PackedMatrix, HeError> {
    let layout = read_layout(r)?;
    packed(layout, read_cts(r, ctx)?)
}

/// Pairs ciphertexts with the layout they must fill.
fn packed(layout: Layout, cts: Vec<Ciphertext>) -> Result<PackedMatrix, HeError> {
    if cts.len() != layout.num_cts {
        return Err(HeError::Malformed { what: "packed matrix ciphertext count" });
    }
    Ok(PackedMatrix { layout, cts })
}

// ---- flights ---------------------------------------------------------------

/// Sends a batch of ciphertexts as one message.
pub fn send_cts(t: &dyn Transport, cts: &[Ciphertext]) {
    let mut out = Vec::new();
    write_cts(&mut out, cts);
    t.send_owned(out);
}

/// Receives a batch of ciphertexts.
///
/// # Errors
///
/// [`HeError::Malformed`] on a truncated header, truncated or corrupt
/// ciphertext bytes, a forged count pointing past the flight, or bytes
/// after the last ciphertext.
pub fn recv_cts(t: &dyn Transport, ctx: &HeContext) -> Result<Vec<Ciphertext>, HeError> {
    decode(&t.recv(), |r| read_cts(r, ctx))
}

/// Sends a packed matrix (layout is public and known to both sides, so
/// only the ciphertexts travel).
pub fn send_packed(t: &dyn Transport, m: &PackedMatrix) {
    send_cts(t, &m.cts);
}

/// Receives a packed matrix into a known layout.
///
/// # Errors
///
/// [`HeError::Malformed`] as [`recv_cts`], or if the decoded ciphertext
/// count does not match the layout both sides agreed on.
pub fn recv_packed(
    t: &dyn Transport,
    ctx: &HeContext,
    layout: Layout,
) -> Result<PackedMatrix, HeError> {
    packed(layout, recv_cts(t, ctx)?)
}

/// Sends a ring matrix in the clear (shares and masked values only!).
pub fn send_matrix(t: &dyn Transport, m: &MatZ) {
    let mut out = Vec::with_capacity(8 + m.as_slice().len() * 8);
    write_matz(&mut out, m);
    t.send_owned(out);
}

/// Receives a ring matrix.
///
/// # Errors
///
/// [`HeError::Malformed`] on a truncated header or a `rows × cols`
/// (overflow-checked) that does not match the payload length.
pub fn recv_matrix(t: &dyn Transport) -> Result<MatZ, HeError> {
    decode(&t.recv(), |r| Ok(read_matz(r)?))
}

/// Sends the client's Galois keys as real serialized bytes (the one-time
/// Setup flight; the server reconstructs them with [`recv_galois_keys`]).
pub fn send_galois_keys(t: &dyn Transport, keys: &GaloisKeys) {
    let mut out = Vec::with_capacity(keys.serialized_size());
    keys.write(&mut out);
    t.send_owned(out);
}

/// Receives and deserializes Galois keys sent by [`send_galois_keys`].
///
/// # Errors
///
/// [`HeError::Malformed`] on truncated or corrupt key bytes — this is
/// the first flight a server decodes from an untrusted peer, so it must
/// fail soft (the serving worker maps it to a failed session, not a
/// crash).
pub fn recv_galois_keys(t: &dyn Transport, ctx: &HeContext) -> Result<GaloisKeys, HeError> {
    decode(&t.recv(), |r| GaloisKeys::read(ctx, r))
}

/// Sends `len` placeholder bytes — used by the simulated GC mode to
/// account for garbled-table traffic without performing the garbling.
pub fn send_placeholder(t: &dyn Transport, len: usize) {
    t.send_owned(vec![0u8; len]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use primer_math::codec::put_bytes;
    use primer_math::rng::seeded;
    use primer_math::Ring;
    use primer_net::run_two_party;

    #[test]
    fn galois_keys_roundtrip_over_transport() {
        use primer_he::{HeContext, HeParams, KeyGenerator};
        let ctx = HeContext::new(HeParams::toy());
        let mut rng = seeded(231);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let gk = kg.galois_keys(&[1, 2], false, &mut rng);
        let size = gk.serialized_size();
        let ctx_s = ctx.clone();
        let (_, received, meter) = run_two_party(
            move |t| send_galois_keys(&t, &gk),
            move |t| recv_galois_keys(&t, &ctx_s).expect("well-formed keys"),
        );
        assert_eq!(received.steps(), &[1, 2]);
        // Metered traffic reflects the real key bytes, not a placeholder.
        assert_eq!(meter.c2s.bytes(), size as u64);
    }

    #[test]
    fn matrix_roundtrip() {
        let ring = Ring::new(65537);
        let m = MatZ::random(&ring, 3, 5, &mut seeded(230));
        let m2 = m.clone();
        let (got, _, _) = run_two_party(
            move |t| recv_matrix(&t).expect("well-formed matrix"),
            move |t| send_matrix(&t, &m2),
        );
        assert_eq!(got, m);
    }

    #[test]
    fn matz_roundtrip() {
        let m = MatZ::from_vec(2, 3, vec![1, 2, 3, 4, 5, u64::MAX]);
        let mut out = Vec::new();
        write_matz(&mut out, &m);
        let back: MatZ = decode(&out, read_matz).expect("decode");
        assert_eq!(back.rows(), 2);
        assert_eq!(back.cols(), 3);
        assert_eq!(back.as_slice(), m.as_slice());
    }

    #[test]
    fn truncated_matz_is_malformed() {
        let m = MatZ::from_vec(2, 2, vec![9, 8, 7, 6]);
        let mut out = Vec::new();
        write_matz(&mut out, &m);
        out.pop();
        assert_eq!(
            decode(&out, read_matz).err(),
            Some(WireError::Short { what: "matrix data" })
        );
    }

    #[test]
    fn bytes_roundtrip() {
        let mut out = Vec::new();
        put_bytes(&mut out, b"suspend");
        put_u32(&mut out, 7);
        let (blob, tail) = decode(&out, |r| Ok::<_, WireError>((r.bytes("blob")?, r.u32("tail")?)))
            .expect("decode");
        assert_eq!(blob, b"suspend");
        assert_eq!(tail, 7);
        out.push(0);
        let trailing = decode(&out, |r| {
            r.bytes("blob")?;
            r.u32("tail")
        });
        assert_eq!(trailing.err(), Some(WireError::Trailing));
    }

    /// Every way an attacker can mangle a matrix flight must come back
    /// as `Malformed`, never a panic (mirrors the `RnsPoly::read`
    /// hardening).
    #[test]
    fn forged_matrix_flights_are_malformed_not_panics() {
        use primer_he::HeError;
        let recv_forged = |payload: Vec<u8>| {
            let (got, _, _) = run_two_party(
                move |t| recv_matrix(&t),
                move |t| t.send_owned(payload),
            );
            got
        };
        let cases: Vec<(&str, Vec<u8>)> = vec![
            ("empty flight", vec![]),
            ("truncated header", vec![1, 0, 0]),
            ("header only, rows*cols > 0", {
                let mut b = Vec::new();
                b.extend_from_slice(&3u32.to_le_bytes());
                b.extend_from_slice(&5u32.to_le_bytes());
                b
            }),
            ("payload short one element", {
                let mut b = Vec::new();
                b.extend_from_slice(&2u32.to_le_bytes());
                b.extend_from_slice(&2u32.to_le_bytes());
                b.extend_from_slice(&[0u8; 3 * 8]);
                b
            }),
            ("payload longer than rows*cols", {
                let mut b = Vec::new();
                b.extend_from_slice(&1u32.to_le_bytes());
                b.extend_from_slice(&1u32.to_le_bytes());
                b.extend_from_slice(&[0u8; 2 * 8]);
                b
            }),
            ("rows*cols overflows usize", {
                let mut b = Vec::new();
                b.extend_from_slice(&u32::MAX.to_le_bytes());
                b.extend_from_slice(&u32::MAX.to_le_bytes());
                b.extend_from_slice(&[0u8; 8]);
                b
            }),
        ];
        for (what, payload) in cases {
            let got = recv_forged(payload);
            assert!(
                matches!(got, Err(HeError::Malformed { .. })),
                "{what}: expected Malformed, got {got:?}"
            );
        }
    }

    /// Truncated and forged ciphertext batches fail soft mid-session.
    #[test]
    fn forged_ciphertext_flights_are_malformed_not_panics() {
        use primer_he::{BatchEncoder, Encryptor, HeContext, HeParams, KeyGenerator};
        let ctx = HeContext::new(HeParams::toy());
        let mut rng = seeded(232);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let encr = Encryptor::new(&ctx, kg.secret_key().clone(), 77);
        let ct = encr.encrypt(&BatchEncoder::new(&ctx).encode(&[1, 2, 3]));
        let good = {
            let mut b = Vec::new();
            write_cts(&mut b, &[ct]);
            b
        };

        let recv_forged = |payload: Vec<u8>, ctx: HeContext| {
            let (got, _, _) = run_two_party(
                move |t| recv_cts(&t, &ctx),
                move |t| t.send_owned(payload),
            );
            got
        };
        let truncated = good[..good.len() - 5].to_vec();
        let forged_count = {
            let mut b = good.clone();
            b[..4].copy_from_slice(&9u32.to_le_bytes());
            b
        };
        let trailing = {
            let mut b = good.clone();
            b.push(0);
            b
        };
        let residue_above_prime = {
            // Count, ciphertext header, poly header: the first residue.
            let mut b = good.clone();
            b[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
            b
        };
        // Count and ciphertext header, then c0's form byte.
        let c0_form = |form: u8| {
            let mut b = good.clone();
            b[6] = form;
            b
        };
        let cases: Vec<(&str, Vec<u8>)> = vec![
            ("empty flight", vec![]),
            ("truncated header", vec![2, 0]),
            ("count with no payload", 4u32.to_le_bytes().to_vec()),
            ("truncated ciphertext", truncated),
            ("forged count past the flight", forged_count),
            ("trailing byte", trailing),
            ("residue above its prime", residue_above_prime),
            ("c0 in coefficient form", c0_form(0)),
            ("c0 form byte past 1", c0_form(2)),
        ];
        for (what, payload) in cases {
            let got = recv_forged(payload, ctx.clone());
            assert!(
                matches!(got, Err(primer_he::HeError::Malformed { .. })),
                "{what}: expected Malformed, got ciphertext batch of {:?}",
                got.map(|cts| cts.len())
            );
        }
        // Sanity: the well-formed flight still decodes.
        let ok = recv_forged(good, ctx);
        assert_eq!(ok.expect("well-formed flight").len(), 1);
    }
}
