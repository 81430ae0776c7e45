//! Binary (de)serialisation of trained parameters.
//!
//! Format (`IRSP` v1, little-endian):
//!
//! ```text
//! magic   [u8; 4] = b"IRSP"
//! version u32     = 1
//! count   u32                         number of parameter tensors
//! per parameter:
//!   name_len u16, name bytes (UTF-8)
//!   ndim     u8,  dims u32 × ndim
//!   data     f32 × Π dims
//! ```
//!
//! Loading is *architecture-checked*: [`ParamStore::load_parameters`]
//! matches records by name against the already-registered parameters and
//! refuses shape or coverage mismatches, so a file can only be loaded into
//! the model architecture that produced it.  It also refuses NaN and ±inf
//! weights, so a diverged snapshot, or one whose flipped bits made a
//! weight non-finite, fails to load instead of serving non-finite scores.

use std::io::{self, Read, Write};

use irs_tensor::Tensor;

use crate::params::ParamStore;

const MAGIC: &[u8; 4] = b"IRSP";
const VERSION: u32 = 1;

fn err(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

impl ParamStore {
    /// Serialise every parameter tensor (names, shapes, values).
    pub fn save_parameters<W: Write>(&self, mut writer: W) -> io::Result<()> {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        let count = u32::try_from(self.num_tensors()).map_err(|_| err("too many parameters"))?;
        buf.extend_from_slice(&count.to_le_bytes());
        for id in self.ids() {
            let name = self.name(id).as_bytes();
            let name_len = u16::try_from(name.len()).map_err(|_| err("parameter name too long"))?;
            buf.extend_from_slice(&name_len.to_le_bytes());
            buf.extend_from_slice(name);
            let value = self.value(id);
            let shape = value.shape();
            buf.push(u8::try_from(shape.len()).map_err(|_| err("parameter rank too large"))?);
            for &d in shape {
                let d = u32::try_from(d).map_err(|_| err("parameter dimension too large"))?;
                buf.extend_from_slice(&d.to_le_bytes());
            }
            for &x in value.data() {
                buf.extend_from_slice(&x.to_le_bytes());
            }
        }
        writer.write_all(&buf)
    }

    /// Load parameters into this (already constructed) store, matching
    /// records by name.  Every registered parameter must be covered, every
    /// record must match an existing parameter with the same shape, and
    /// every weight must be finite; anything else fails with
    /// `InvalidData`.
    pub fn load_parameters<R: Read>(&mut self, mut reader: R) -> io::Result<()> {
        let mut raw = Vec::new();
        reader.read_to_end(&mut raw)?;
        let mut records = IrspReader::new(&raw)?;
        if records.count() != self.num_tensors() {
            return Err(err(format!(
                "parameter count mismatch: file has {}, model has {}",
                records.count(),
                self.num_tensors()
            )));
        }

        let mut loaded = vec![false; records.count()];
        while let Some((name, shape, payload)) = records.next_record()? {
            let data: Vec<f32> = payload
                .chunks_exact(4)
                .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
                .collect();
            if let Some(i) = data.iter().position(|x| !x.is_finite()) {
                return Err(err(format!("non-finite weight {} at index {i} of '{name}'", data[i])));
            }

            let id = self
                .ids()
                .find(|&id| self.name(id) == name)
                .ok_or_else(|| err(format!("unknown parameter '{name}' in file")))?;
            let idx = self.ids().position(|i| i == id).expect("id exists");
            if loaded[idx] {
                return Err(err(format!("duplicate parameter '{name}'")));
            }
            if self.value(id).shape() != shape.as_slice() {
                return Err(err(format!(
                    "shape mismatch for '{name}': file {:?}, model {:?}",
                    shape,
                    self.value(id).shape()
                )));
            }
            *self.value_mut(id) = Tensor::from_vec(data, &shape);
            loaded[idx] = true;
        }
        if !loaded.iter().all(|&l| l) {
            return Err(err("file does not cover every model parameter"));
        }
        Ok(())
    }
}

/// Streaming reader over an IRSP byte buffer — the single copy of the
/// format grammar shared by [`ParamStore::load_parameters`] (which reads
/// the weight payloads) and [`irsp_summary`] (which skips them).  Every
/// read is bounds-checked and every size is overflow-checked, so a
/// malformed file fails with `InvalidData` and never panics.
struct IrspReader<'a> {
    rest: &'a [u8],
    remaining: usize,
    count: usize,
}

impl<'a> IrspReader<'a> {
    /// Validate magic + version and read the record count.
    fn new(raw: &'a [u8]) -> io::Result<IrspReader<'a>> {
        let mut r = IrspReader { rest: raw, remaining: 0, count: 0 };
        if r.take(4)? != MAGIC {
            return Err(err("not an IRSP parameter file"));
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(err(format!("unsupported IRSP version {version}")));
        }
        let count = r.u32()? as usize;
        // A record takes at least 3 bytes (name length and rank).
        if count > r.rest.len() / 3 {
            return Err(err(format!("{count} records cannot fit in {} bytes", r.rest.len())));
        }
        (r.remaining, r.count) = (count, count);
        Ok(r)
    }

    /// The next `n` bytes, or `InvalidData` when fewer are left.
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.rest.len() < n {
            return Err(err("truncated parameter file"));
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(head)
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("take(4) is 4 bytes")))
    }

    /// Number of records the header declares.
    fn count(&self) -> usize {
        self.count
    }

    /// The next `(name, shape, raw little-endian f32 payload)` record, or
    /// `None` after the last one, which must end the file.
    #[allow(clippy::type_complexity)]
    fn next_record(&mut self) -> io::Result<Option<(String, Vec<usize>, &'a [u8])>> {
        if self.remaining == 0 {
            if !self.rest.is_empty() {
                return Err(err("trailing bytes after the last record"));
            }
            return Ok(None);
        }
        self.remaining -= 1;
        let name_len = u16::from_le_bytes(self.take(2)?.try_into().expect("take(2) is 2 bytes"));
        let name = std::str::from_utf8(self.take(name_len as usize)?)
            .map_err(|_| err("invalid UTF-8 name"))?
            .to_owned();
        let ndim = self.take(1)?[0];
        let shape = (0..ndim).map(|_| Ok(self.u32()? as usize)).collect::<io::Result<Vec<_>>>()?;
        let bytes = shape
            .iter()
            .try_fold(1usize, |n, &d| n.checked_mul(d))
            .and_then(|numel| numel.checked_mul(4))
            .ok_or_else(|| err(format!("shape {shape:?} of '{name}' overflows usize")))?;
        let payload = self.take(bytes)?;
        Ok(Some((name, shape, payload)))
    }
}

/// Summary of one parameter record in an IRSP file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IrspRecord {
    /// Parameter name.
    pub name: String,
    /// Tensor shape.
    pub shape: Vec<usize>,
}

impl IrspRecord {
    /// Number of scalars in this record.
    pub fn numel(&self) -> usize {
        self.shape.iter().product()
    }
}

/// Read the header and per-parameter metadata of an IRSP file without
/// materialising the weights — what a serving frontend reports about a
/// snapshot before (or instead of) loading it into a model.  It skips the
/// payloads, so a file whose weights hold NaN or ±inf summarises fine
/// here and still fails [`ParamStore::load_parameters`].
pub fn irsp_summary<R: Read>(mut reader: R) -> io::Result<Vec<IrspRecord>> {
    let mut raw = Vec::new();
    reader.read_to_end(&mut raw)?;
    let mut records = IrspReader::new(&raw)?;
    let mut out = Vec::with_capacity(records.count());
    while let Some((name, shape, _payload)) = records.next_record()? {
        out.push(IrspRecord { name, shape });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn sample_store(seed: u64) -> ParamStore {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        store.add("layer.w", Tensor::randn(&[3, 4], 1.0, &mut rng));
        store.add("layer.b", Tensor::randn(&[4], 1.0, &mut rng));
        store.add("emb.table", Tensor::randn(&[10, 4], 1.0, &mut rng));
        store
    }

    #[test]
    fn round_trip_preserves_all_values() {
        let src = sample_store(1);
        let mut bytes = Vec::new();
        src.save_parameters(&mut bytes).unwrap();

        let mut dst = sample_store(2); // different values, same architecture
        dst.load_parameters(&bytes[..]).unwrap();
        for (a, b) in src.ids().zip(dst.ids()) {
            assert_eq!(src.value(a), dst.value(b));
        }
    }

    #[test]
    fn summary_reports_names_and_shapes_without_loading() {
        let src = sample_store(1);
        let mut bytes = Vec::new();
        src.save_parameters(&mut bytes).unwrap();
        let records = irsp_summary(&bytes[..]).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0], IrspRecord { name: "layer.w".into(), shape: vec![3, 4] });
        assert_eq!(records[0].numel(), 12);
        assert_eq!(records[2].name, "emb.table");

        let truncated = &bytes[..bytes.len() - 3];
        assert!(irsp_summary(truncated).is_err());
    }

    #[test]
    fn rejects_wrong_magic_and_truncation() {
        let src = sample_store(1);
        let mut bytes = Vec::new();
        src.save_parameters(&mut bytes).unwrap();

        let mut dst = sample_store(2);
        let mut corrupted = bytes.clone();
        corrupted[0] = b'X';
        assert!(dst.load_parameters(&corrupted[..]).is_err());

        let truncated = &bytes[..bytes.len() / 2];
        assert!(dst.load_parameters(truncated).is_err());
    }

    /// An IRSP header declaring `count` records, then `body`.
    fn irsp_file(count: u32, body: &[u8]) -> Vec<u8> {
        let mut f = MAGIC.to_vec();
        f.extend_from_slice(&VERSION.to_le_bytes());
        f.extend_from_slice(&count.to_le_bytes());
        f.extend_from_slice(body);
        f
    }

    /// A record's name and dims, with no payload after them.
    fn record_head(name_len: u16, name: &[u8], dims: &[u32]) -> Vec<u8> {
        let mut r = name_len.to_le_bytes().to_vec();
        r.extend_from_slice(name);
        r.push(dims.len() as u8);
        for d in dims {
            r.extend_from_slice(&d.to_le_bytes());
        }
        r
    }

    #[test]
    fn hostile_files_fail_with_invalid_data_and_never_panic() {
        let mut valid = Vec::new();
        sample_store(1).save_parameters(&mut valid).unwrap();
        let mut corpus: Vec<Vec<u8>> = (0..valid.len()).map(|n| valid[..n].to_vec()).collect();
        for i in 0..12 {
            let mut flipped = valid.clone();
            flipped[i] ^= 0xFF;
            corpus.push(flipped);
        }
        let mut trailing = valid.clone();
        trailing.push(0);
        corpus.push(trailing);
        // Π dims overflows usize, then Π dims fits a 64-bit usize and
        // 4 · Π dims does not.  One record reaches the end of the summary;
        // three reach `load_parameters`' record loop.
        for dims in [&[1u32 << 16; 4][..], &[1 << 31, 1 << 31]] {
            let record = record_head(1, b"w", dims);
            corpus.push(irsp_file(1, &record));
            corpus.push(irsp_file(3, &record));
        }
        // The name runs past the end of the file.
        corpus.push(irsp_file(3, &record_head(u16::MAX, b"layer.w", &[3, 4])));
        corpus.push(irsp_file(u32::MAX, &valid[12..]));

        for (i, file) in corpus.iter().enumerate() {
            let summary = irsp_summary(&file[..]).map(|_| ()).unwrap_err();
            assert_eq!(summary.kind(), io::ErrorKind::InvalidData, "summary of input {i}");
            let load = sample_store(2).load_parameters(&file[..]).unwrap_err();
            assert_eq!(load.kind(), io::ErrorKind::InvalidData, "load of input {i}");
        }

        // Well-formed files whose payload holds a non-finite weight: the
        // summary skips payloads and accepts them, the loader refuses them
        // and names the parameter.
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut store = sample_store(1);
            let id = store.ids().nth(1).expect("layer.b");
            store.value_mut(id).data_mut()[2] = bad;
            let mut file = Vec::new();
            store.save_parameters(&mut file).unwrap();
            assert_eq!(irsp_summary(&file[..]).unwrap().len(), 3, "summary of {bad}");
            let load = sample_store(2).load_parameters(&file[..]).unwrap_err();
            assert_eq!(load.kind(), io::ErrorKind::InvalidData, "load of {bad}");
            assert!(load.to_string().contains("'layer.b'"), "{load}");
        }
    }

    #[test]
    fn rejects_architecture_mismatch() {
        let src = sample_store(1);
        let mut bytes = Vec::new();
        src.save_parameters(&mut bytes).unwrap();

        // Different shape.
        let mut wrong_shape = ParamStore::new();
        wrong_shape.add("layer.w", Tensor::zeros(&[3, 5]));
        wrong_shape.add("layer.b", Tensor::zeros(&[4]));
        wrong_shape.add("emb.table", Tensor::zeros(&[10, 4]));
        assert!(wrong_shape.load_parameters(&bytes[..]).is_err());

        // Different names.
        let mut wrong_names = ParamStore::new();
        wrong_names.add("other.w", Tensor::zeros(&[3, 4]));
        wrong_names.add("layer.b", Tensor::zeros(&[4]));
        wrong_names.add("emb.table", Tensor::zeros(&[10, 4]));
        assert!(wrong_names.load_parameters(&bytes[..]).is_err());

        // Different count.
        let mut wrong_count = ParamStore::new();
        wrong_count.add("layer.w", Tensor::zeros(&[3, 4]));
        assert!(wrong_count.load_parameters(&bytes[..]).is_err());
    }
}
