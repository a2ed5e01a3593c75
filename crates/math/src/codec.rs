//! The byte codec: every flight, key set, suspend image and control
//! frame is laid out with these writers and read with this one reader.
//!
//! A record is little-endian and length-checked, and this module is the
//! one place that knows how. Writers append to a `Vec<u8>` (`put_*` for
//! scalars, `write_*` for records); the one reader is the checked
//! cursor [`Rdr`], and [`decode`] runs a reader over a whole buffer and
//! refuses bytes it leaves unread. Header fields (counts, dimensions)
//! are checked against the bytes actually present — overflow-checked —
//! before anything is sliced or allocated by them, so a forged header
//! cannot panic the process or trigger a huge allocation.
//!
//! A read fails in two ways, a short buffer or leftover bytes, both as
//! a [`WireError`] naming the field. Each layer converts it with `From`
//! into its own error — the HE layer's `HeError::Malformed`, the
//! serving layer's `ProtoError` — so `?` works on every side. It lives
//! here, below every crate that reads a peer's bytes.

use crate::MatZ;

/// Why a record did not decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended inside the named field.
    Short {
        /// The field being read.
        what: &'static str,
    },
    /// Bytes were left after the record's last field.
    Trailing,
}

// ---- writers ---------------------------------------------------------------

/// Appends a `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a byte string behind a `u64` length ([`Rdr::bytes`]).
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u64(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

// ---- the reader ------------------------------------------------------------

/// Checked cursor over one record's bytes.
pub struct Rdr<'a> {
    buf: &'a [u8],
    pos: usize,
}

/// Decodes one whole record with `f`. Bytes `f` leaves unread are
/// [`WireError::Trailing`], not ignored.
///
/// # Errors
///
/// Whatever `f` returns, or the trailing-bytes error converted to `E`.
pub fn decode<'a, T, E: From<WireError>>(
    bytes: &'a [u8],
    f: impl FnOnce(&mut Rdr<'a>) -> Result<T, E>,
) -> Result<T, E> {
    let mut r = Rdr { buf: bytes, pos: 0 };
    let value = f(&mut r)?;
    if r.pos != r.buf.len() {
        return Err(WireError::Trailing.into());
    }
    Ok(value)
}

/// Every read names its field and fails with [`WireError::Short`] when
/// the buffer ends inside it.
impl<'a> Rdr<'a> {
    /// The next `n` bytes.
    pub fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        let short = WireError::Short { what };
        let end = self.pos.checked_add(n).ok_or(short)?;
        let s = self.buf.get(self.pos..end).ok_or(short)?;
        self.pos = end;
        Ok(s)
    }

    /// The next `N` bytes as an array.
    pub fn array<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], WireError> {
        let mut a = [0; N];
        a.copy_from_slice(self.take(N, what)?);
        Ok(a)
    }

    /// One byte.
    pub fn u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        Ok(self.array::<1>(what)?[0])
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.array(what)?))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.array(what)?))
    }

    /// `n` little-endian `u64`s, all checked present (`n * 8`
    /// overflow-checked) before the first is read.
    pub fn u64s(
        &mut self,
        n: usize,
        what: &'static str,
    ) -> Result<impl ExactSizeIterator<Item = u64> + 'a, WireError> {
        let len = n.checked_mul(8).ok_or(WireError::Short { what })?;
        Ok(self
            .take(len, what)?
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("chunks of 8"))))
    }

    /// A byte string written by [`put_bytes`].
    pub fn bytes(&mut self, what: &'static str) -> Result<&'a [u8], WireError> {
        let len = self.u64(what)?;
        self.take(usize::try_from(len).unwrap_or(usize::MAX), what)
    }
}

// ---- ring matrices ---------------------------------------------------------

/// Appends a ring matrix as `[rows u32][cols u32][values u64…]`.
pub fn write_matz(out: &mut Vec<u8>, m: &MatZ) {
    put_u32(out, m.rows() as u32);
    put_u32(out, m.cols() as u32);
    for &v in m.as_slice() {
        put_u64(out, v);
    }
}

/// Reads what [`write_matz`] writes.
pub fn read_matz(r: &mut Rdr) -> Result<MatZ, WireError> {
    let rows = r.u32("matrix rows")? as usize;
    let cols = r.u32("matrix cols")? as usize;
    // A shape whose byte size overflows cannot be present either.
    let data = r.u64s(rows.saturating_mul(cols), "matrix data")?.collect();
    Ok(MatZ::from_vec(rows, cols, data))
}

