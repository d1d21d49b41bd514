//! The workspace's strict little-endian byte codec: a bounds-checked
//! read cursor and the matching append helpers. The binary snapshot
//! image ([`crate::persist`]) and the service's wire protocol both
//! decode through [`Cur`], so there is one codec style in the tree.
//!
//! All integers are little-endian and floats are IEEE-754 bit patterns.
//! Reads never trust a declared length: [`Cur::count`] checks a count
//! against the bytes actually left before the caller allocates for it,
//! and every read past the end is an error, never a panic.

/// A structurally invalid input; names the field being read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Malformed(pub &'static str);

impl std::fmt::Display for Malformed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed {}", self.0)
    }
}

impl std::error::Error for Malformed {}

/// A strict little-endian read cursor over a byte slice.
pub struct Cur<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Cur<'a> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Cur { b: bytes, i: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.b.len() - self.i
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], Malformed> {
        let end = self.i.checked_add(n).ok_or(Malformed(what))?;
        if end > self.b.len() {
            return Err(Malformed(what));
        }
        let s = &self.b[self.i..end];
        self.i = end;
        Ok(s)
    }

    /// The next `N` bytes as an array.
    fn array<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], Malformed> {
        Ok(self.take(N, what)?.try_into().expect("take returns exactly N bytes"))
    }

    pub fn u8(&mut self, what: &'static str) -> Result<u8, Malformed> {
        Ok(self.take(1, what)?[0])
    }

    pub fn u16(&mut self, what: &'static str) -> Result<u16, Malformed> {
        self.array(what).map(u16::from_le_bytes)
    }

    pub fn u32(&mut self, what: &'static str) -> Result<u32, Malformed> {
        self.array(what).map(u32::from_le_bytes)
    }

    pub fn u64(&mut self, what: &'static str) -> Result<u64, Malformed> {
        self.array(what).map(u64::from_le_bytes)
    }

    pub fn f32(&mut self, what: &'static str) -> Result<f32, Malformed> {
        self.array(what).map(f32::from_le_bytes)
    }

    pub fn f64(&mut self, what: &'static str) -> Result<f64, Malformed> {
        self.array(what).map(f64::from_le_bytes)
    }

    /// A `u64` that must fit the platform's `usize`.
    pub fn usize(&mut self, what: &'static str) -> Result<usize, Malformed> {
        usize::try_from(self.u64(what)?).map_err(|_| Malformed(what))
    }

    /// A `u8` that must be 0 or 1.
    pub fn bool(&mut self, what: &'static str) -> Result<bool, Malformed> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(Malformed(what)),
        }
    }

    /// A `u32` element count, checked against the input left: `count`
    /// elements of at least `min_bytes` each must still fit.
    pub fn count(&mut self, min_bytes: usize, what: &'static str) -> Result<usize, Malformed> {
        let n = self.u32(what)? as usize;
        match n.checked_mul(min_bytes) {
            Some(need) if need <= self.remaining() => Ok(n),
            _ => Err(Malformed(what)),
        }
    }

    /// `n` consecutive `f32`s.
    pub fn f32s(&mut self, n: usize, what: &'static str) -> Result<Vec<f32>, Malformed> {
        let raw = self.take(n.checked_mul(4).ok_or(Malformed(what))?, what)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect())
    }

    /// `n` consecutive `f64`s.
    pub fn f64s(&mut self, n: usize, what: &'static str) -> Result<Vec<f64>, Malformed> {
        let raw = self.take(n.checked_mul(8).ok_or(Malformed(what))?, what)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect())
    }

    /// `n` consecutive strict bools ([`Cur::bool`]), one byte each.
    pub fn bools(&mut self, n: usize, what: &'static str) -> Result<Vec<bool>, Malformed> {
        self.take(n, what)?
            .iter()
            .map(|&b| match b {
                0 => Ok(false),
                1 => Ok(true),
                _ => Err(Malformed(what)),
            })
            .collect()
    }

    /// Succeeds only when every byte has been consumed.
    pub fn done(&self) -> Result<(), Malformed> {
        if self.i == self.b.len() {
            Ok(())
        } else {
            Err(Malformed("trailing bytes"))
        }
    }
}

pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// A `usize` as `u64`.
pub fn put_usize(out: &mut Vec<u8>, v: usize) {
    put_u64(out, v as u64);
}

/// An element count as `u32` (the [`Cur::count`] prefix). Counts past
/// `u32::MAX` are a programming error: no in-memory model gets there.
pub fn put_count(out: &mut Vec<u8>, n: usize) {
    put_u32(out, u32::try_from(n).expect("element count exceeds u32::MAX"));
}

pub fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

pub fn put_f32s(out: &mut Vec<u8>, vs: &[f32]) {
    out.reserve(vs.len() * 4);
    for v in vs {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

pub fn put_f64s(out: &mut Vec<u8>, vs: &[f64]) {
    out.reserve(vs.len() * 8);
    for v in vs {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Bools one byte each ([`Cur::bools`]).
pub fn put_bools(out: &mut Vec<u8>, vs: &[bool]) {
    out.extend(vs.iter().map(|&b| u8::from(b)));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_back_what_was_put() {
        let mut out = Vec::new();
        put_bool(&mut out, false);
        put_u32(&mut out, 0xdead_beef);
        put_usize(&mut out, 1 << 40);
        put_count(&mut out, 3);
        put_f32s(&mut out, &[1.5, -0.0, f32::NAN]);
        put_f64s(&mut out, &[std::f64::consts::PI]);
        put_bools(&mut out, &[true, false]);
        put_bool(&mut out, true);
        let mut c = Cur::new(&out);
        assert!(!c.bool("a").unwrap());
        assert_eq!(c.u32("b").unwrap(), 0xdead_beef);
        assert_eq!(c.usize("c").unwrap(), 1 << 40);
        let n = c.count(4, "d").unwrap();
        let fs = c.f32s(n, "e").unwrap();
        assert_eq!(fs[0], 1.5);
        assert!(fs[1].is_sign_negative() && fs[2].is_nan());
        assert_eq!(c.f64s(1, "f").unwrap(), vec![std::f64::consts::PI]);
        assert_eq!(c.bools(2, "g").unwrap(), vec![true, false]);
        assert!(c.bool("h").unwrap());
        c.done().unwrap();
    }

    #[test]
    fn refuses_short_oversized_and_trailing_input() {
        assert_eq!(Cur::new(&[1, 2, 3]).u32("short"), Err(Malformed("short")));
        // A count whose elements cannot fit in what is left.
        let mut out = Vec::new();
        put_count(&mut out, 3);
        put_f32s(&mut out, &[1.0, 2.0]);
        assert_eq!(Cur::new(&out).count(4, "n"), Err(Malformed("n")));
        assert_eq!(Cur::new(&[0xff; 4]).count(usize::MAX, "n"), Err(Malformed("n")));
        assert_eq!(Cur::new(&[2]).bool("flag"), Err(Malformed("flag")));
        assert_eq!(Cur::new(&[0, 2]).bools(2, "flags"), Err(Malformed("flags")));
        let mut c = Cur::new(&[0, 0]);
        c.u8("x").unwrap();
        assert_eq!(c.done(), Err(Malformed("trailing bytes")));
    }
}
