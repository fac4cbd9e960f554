//! GraphDef / TensorProto serialization and checkpointing.
//!
//! Graphs and variable checkpoints serialize through `tfhpc-proto`'s
//! protobuf-style wire format, subject to the same 2 GB message limit
//! the paper discusses (§IV: an unrolled-loop graph can exceed it; the
//! fix — keeping state in variables and running only the loop body —
//! is exactly how the CG application is written).
//!
//! `PyFunc` and `Custom` nodes are not serializable, matching
//! TensorFlow's own limitation for `tf.py_func`.

use crate::device::Placement;
use crate::error::{CoreError, Result};
use crate::graph::{Graph, NodeId};
use crate::op::Op;
use crate::resources::Resources;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tfhpc_proto::{frame, Decoder, Encoder, Message, ProtoError};
use tfhpc_tensor::{Complex64, DType, Shape, Storage, Tensor, TensorData};

// ---- TensorProto -----------------------------------------------------------

/// Wire wrapper for [`Tensor`].
pub struct TensorProto(pub Tensor);

impl Message for TensorProto {
    fn encode(&self, enc: &mut Encoder) -> std::result::Result<(), ProtoError> {
        let t = &self.0;
        enc.put_u64(1, t.dtype().wire_id());
        enc.put_packed_u64(
            2,
            &t.shape()
                .dims()
                .iter()
                .map(|d| *d as u64)
                .collect::<Vec<_>>(),
        );
        match t.storage() {
            Storage::Synthetic { seed } => {
                enc.put_bool(3, true);
                enc.put_u64(4, *seed);
            }
            Storage::Dense(data) => {
                enc.put_bool(3, false);
                match data.as_ref() {
                    TensorData::F32(v) => enc.put_packed_f32(5, v),
                    TensorData::F64(v) => enc.put_packed_f64(6, v),
                    TensorData::C128(v) => {
                        let flat: Vec<f64> = v.iter().flat_map(|c| [c.re, c.im]).collect();
                        enc.put_packed_f64(7, &flat);
                    }
                    TensorData::I64(v) => {
                        enc.put_packed_u64(8, &v.iter().map(|x| *x as u64).collect::<Vec<_>>())
                    }
                    TensorData::I32(v) => enc
                        .put_packed_u64(9, &v.iter().map(|x| *x as u32 as u64).collect::<Vec<_>>()),
                    TensorData::U8(v) => enc.put_bytes(10, v),
                    TensorData::Bool(v) => {
                        enc.put_bytes(11, &v.iter().map(|b| *b as u8).collect::<Vec<_>>())
                    }
                }
            }
        }
        Ok(())
    }

    fn decode(bytes: &[u8]) -> std::result::Result<Self, ProtoError> {
        let mut d = Decoder::new(bytes)?;
        let mut dtype = None;
        let mut dims: Vec<usize> = Vec::new();
        let mut synthetic = false;
        let mut seed = 0u64;
        let mut data: Option<TensorData> = None;
        while let Some((field, value)) = d.next_field()? {
            match field {
                1 => {
                    dtype = DType::from_wire_id(value.as_u64()?);
                }
                2 => dims = value.as_packed_u64()?.iter().map(|d| *d as usize).collect(),
                3 => synthetic = value.as_bool()?,
                4 => seed = value.as_u64()?,
                5 => data = Some(TensorData::F32(value.as_packed_f32()?)),
                6 => data = Some(TensorData::F64(value.as_packed_f64()?)),
                7 => {
                    let flat = value.as_packed_f64()?;
                    if flat.len() % 2 != 0 {
                        return Err(ProtoError::InvalidField("c128 payload"));
                    }
                    data = Some(TensorData::C128(
                        flat.chunks_exact(2)
                            .map(|p| Complex64::new(p[0], p[1]))
                            .collect(),
                    ));
                }
                8 => {
                    data = Some(TensorData::I64(
                        value.as_packed_u64()?.iter().map(|x| *x as i64).collect(),
                    ))
                }
                9 => {
                    data = Some(TensorData::I32(
                        value
                            .as_packed_u64()?
                            .iter()
                            .map(|x| *x as u32 as i32)
                            .collect(),
                    ))
                }
                10 => data = Some(TensorData::U8(value.as_bytes()?.to_vec())),
                11 => {
                    data = Some(TensorData::Bool(
                        value.as_bytes()?.iter().map(|b| *b != 0).collect(),
                    ))
                }
                _ => {}
            }
        }
        let dtype = dtype.ok_or(ProtoError::InvalidField("dtype"))?;
        let shape = Shape::new(dims);
        if synthetic {
            return Ok(TensorProto(Tensor::synthetic(dtype, shape, seed)));
        }
        let data = data.ok_or(ProtoError::InvalidField("tensor payload"))?;
        let t = match data {
            TensorData::F32(v) => Tensor::from_f32(shape, v),
            TensorData::F64(v) => Tensor::from_f64(shape, v),
            TensorData::C128(v) => Tensor::from_c128(shape, v),
            TensorData::I32(v) => Tensor::from_i32(shape, v),
            TensorData::I64(v) => Tensor::from_i64(shape, v),
            TensorData::U8(v) => Tensor::from_u8(shape, v),
            TensorData::Bool(v) => Tensor::from_bool(shape, v),
        }
        .map_err(|_| ProtoError::InvalidField("tensor payload length"))?;
        Ok(TensorProto(t))
    }
}

// ---- GraphDef ---------------------------------------------------------------

fn encode_node(g: &Graph, id: NodeId, enc: &mut Encoder) -> Result<()> {
    let node = g.node(id);
    enc.put_str(1, &node.name);
    enc.put_str(2, node.op.name());
    enc.put_packed_u64(
        3,
        &node
            .inputs
            .iter()
            .map(|(n, _)| n.index() as u64)
            .collect::<Vec<_>>(),
    );
    enc.put_packed_u64(
        4,
        &node
            .inputs
            .iter()
            .map(|(_, o)| *o as u64)
            .collect::<Vec<_>>(),
    );
    enc.put_packed_u64(
        5,
        &node
            .control_inputs
            .iter()
            .map(|n| n.index() as u64)
            .collect::<Vec<_>>(),
    );
    enc.put_str(6, &node.device.to_string());
    match &node.op {
        Op::Placeholder { dtype, shape } => {
            enc.put_u64(7, dtype.wire_id());
            if let Some(s) = shape {
                enc.put_packed_u64(8, &s.dims().iter().map(|d| *d as u64).collect::<Vec<_>>());
                enc.put_bool(14, true);
            }
        }
        Op::RandomUniform { dtype, shape, seed } => {
            enc.put_u64(7, dtype.wire_id());
            enc.put_packed_u64(
                8,
                &shape.dims().iter().map(|d| *d as u64).collect::<Vec<_>>(),
            );
            enc.put_u64(9, *seed);
        }
        Op::Scale { factor } => enc.put_f64(10, *factor),
        Op::VarRead { var } | Op::Assign { var } | Op::AssignAdd { var } => enc.put_str(11, var),
        Op::QueueEnqueue { queue } => enc.put_str(11, queue),
        Op::QueueDequeue { queue, arity } => {
            enc.put_str(11, queue);
            enc.put_u64(12, *arity as u64);
        }
        Op::DatasetNext { iterator, arity } => {
            enc.put_str(11, iterator);
            enc.put_u64(12, *arity as u64);
        }
        Op::Reshape { shape } => enc.put_packed_u64(
            8,
            &shape.dims().iter().map(|d| *d as u64).collect::<Vec<_>>(),
        ),
        Op::SliceRange { start, end } | Op::SliceRows { start, end } => {
            enc.put_u64(15, *start as u64);
            enc.put_u64(16, *end as u64);
        }
        Op::Cast { to } => enc.put_u64(7, to.wire_id()),
        Op::Const { value } => {
            enc.put_message(13, &TensorProto(value.clone()))?;
        }
        Op::PyFunc { label, .. } => {
            return Err(CoreError::Graph(format!(
                "py_func `{label}` is not serializable"
            )))
        }
        Op::Custom(k) => {
            return Err(CoreError::Graph(format!(
                "custom op `{}` is not serializable",
                k.name()
            )))
        }
        _ => {}
    }
    Ok(())
}

fn decode_node(bytes: &[u8], g: &mut Graph) -> Result<()> {
    let mut d = Decoder::new(bytes)?;
    let mut name = String::new();
    let mut op_name = String::new();
    let mut in_nodes: Vec<u64> = Vec::new();
    let mut in_outs: Vec<u64> = Vec::new();
    let mut controls: Vec<u64> = Vec::new();
    let mut device = Placement::Auto;
    let mut dtype = DType::F32;
    let mut dims: Vec<usize> = Vec::new();
    let mut have_shape = false;
    let mut seed = 0u64;
    let mut factor = 0f64;
    let mut resource = String::new();
    let mut arity = 0usize;
    let mut slice_start = 0usize;
    let mut slice_end = 0usize;
    let mut const_value: Option<Tensor> = None;
    while let Some((field, value)) = d.next_field()? {
        match field {
            1 => name = value.as_str()?.to_string(),
            2 => op_name = value.as_str()?.to_string(),
            3 => in_nodes = value.as_packed_u64()?,
            4 => in_outs = value.as_packed_u64()?,
            5 => controls = value.as_packed_u64()?,
            6 => device = Placement::parse(value.as_str()?).unwrap_or(Placement::Auto),
            7 => {
                dtype =
                    DType::from_wire_id(value.as_u64()?).ok_or(ProtoError::InvalidField("dtype"))?
            }
            8 => {
                dims = value.as_packed_u64()?.iter().map(|v| *v as usize).collect();
                have_shape = true;
            }
            9 => seed = value.as_u64()?,
            10 => factor = value.as_f64()?,
            11 => resource = value.as_str()?.to_string(),
            12 => arity = value.as_u64()? as usize,
            13 => const_value = Some(TensorProto::decode(value.as_bytes()?)?.0),
            14 => have_shape = value.as_bool()? || have_shape,
            15 => slice_start = value.as_u64()? as usize,
            16 => slice_end = value.as_u64()? as usize,
            _ => {}
        }
    }
    let op = match op_name.as_str() {
        "Placeholder" => Op::Placeholder {
            dtype,
            shape: have_shape.then(|| Shape::new(dims.clone())),
        },
        "Const" => Op::Const {
            value: const_value.ok_or(ProtoError::InvalidField("const value"))?,
        },
        "RandomUniform" => Op::RandomUniform {
            dtype,
            shape: Shape::new(dims.clone()),
            seed,
        },
        "VarRead" => Op::VarRead { var: resource },
        "Assign" => Op::Assign { var: resource },
        "AssignAdd" => Op::AssignAdd { var: resource },
        "Add" => Op::Add,
        "Sub" => Op::Sub,
        "Mul" => Op::Mul,
        "Div" => Op::Div,
        "Neg" => Op::Neg,
        "Scale" => Op::Scale { factor },
        "MulScalar" => Op::MulScalar,
        "AddN" => Op::AddN,
        "MatMul" => Op::MatMul,
        "MatVec" => Op::MatVec,
        "Dot" => Op::Dot,
        "Sum" => Op::Sum,
        "Max" => Op::Max,
        "Sqrt" => Op::Sqrt,
        "FFT" => Op::Fft,
        "Reshape" => Op::Reshape {
            shape: Shape::new(dims.clone()),
        },
        "SliceRange" => Op::SliceRange {
            start: slice_start,
            end: slice_end,
        },
        "SliceRows" => Op::SliceRows {
            start: slice_start,
            end: slice_end,
        },
        "ConcatVecs" => Op::ConcatVecs,
        "Transpose" => Op::Transpose,
        "Cast" => Op::Cast { to: dtype },
        "Identity" => Op::Identity,
        "NoOp" => Op::NoOp,
        "QueueEnqueue" => Op::QueueEnqueue { queue: resource },
        "QueueDequeue" => Op::QueueDequeue {
            queue: resource,
            arity,
        },
        "DatasetNext" => Op::DatasetNext {
            iterator: resource,
            arity,
        },
        other => return Err(CoreError::Graph(format!("cannot deserialize op `{other}`"))),
    };
    let inputs = in_nodes
        .iter()
        .zip(in_outs.iter())
        .map(|(n, o)| (NodeId(*n as usize), *o as usize))
        .collect();
    let control_inputs = controls.iter().map(|n| NodeId(*n as usize)).collect();
    g.push_raw(name, op, inputs, control_inputs, device);
    Ok(())
}

/// Serialize a graph to bytes (errors past 2 GB, like TensorFlow).
pub fn graph_to_bytes(g: &Graph) -> Result<Vec<u8>> {
    let mut enc = Encoder::new();
    for node in g.nodes() {
        let mut inner = Encoder::new();
        encode_node(g, node.id, &mut inner)?;
        enc.put_bytes(1, &inner.finish()?);
    }
    Ok(enc.finish()?)
}

/// Rebuild a graph from bytes.
pub fn graph_from_bytes(bytes: &[u8]) -> Result<Graph> {
    let mut d = Decoder::new(bytes)?;
    let mut g = Graph::new();
    while let Some((field, value)) = d.next_field()? {
        if field == 1 {
            decode_node(value.as_bytes()?, &mut g)?;
        }
    }
    Ok(g)
}

// ---- Checkpoints --------------------------------------------------------------

/// Saves and restores variable state (`tf.train.Saver` analogue) —
/// the checkpoint/restart capability §II-B highlights for HPC users.
pub struct Saver;

impl Saver {
    /// Serialize all variables of `resources` to bytes.
    pub fn save_to_bytes(resources: &Resources) -> Result<Vec<u8>> {
        let mut enc = Encoder::new();
        for name in resources.variable_names() {
            let var = resources.variable(&name)?;
            let mut entry = Encoder::new();
            entry.put_str(1, &name);
            entry.put_message(2, &TensorProto(var.read()))?;
            enc.put_bytes(1, &entry.finish()?);
        }
        Ok(enc.finish()?)
    }

    /// Parse a checkpoint payload into `(name, tensor)` pairs without
    /// touching any [`Resources`]. Used to fully validate a candidate
    /// checkpoint *before* applying it, so a corrupt generation can
    /// never leave variables half-restored.
    fn parse_checkpoint(bytes: &[u8]) -> Result<Vec<(String, Tensor)>> {
        let mut d = Decoder::new(bytes)?;
        let mut entries = Vec::new();
        while let Some((field, value)) = d.next_field()? {
            if field != 1 {
                continue;
            }
            let mut entry = Decoder::new(value.as_bytes()?)?;
            let mut name = String::new();
            let mut tensor: Option<Tensor> = None;
            while let Some((f, v)) = entry.next_field()? {
                match f {
                    1 => name = v.as_str()?.to_string(),
                    2 => tensor = Some(TensorProto::decode(v.as_bytes()?)?.0),
                    _ => {}
                }
            }
            let tensor = tensor.ok_or(ProtoError::InvalidField("checkpoint tensor"))?;
            entries.push((name, tensor));
        }
        Ok(entries)
    }

    /// Restore variables from bytes into `resources` (creates or
    /// overwrites).
    pub fn restore_from_bytes(resources: &Arc<Resources>, bytes: &[u8]) -> Result<usize> {
        let entries = Self::parse_checkpoint(bytes)?;
        let count = entries.len();
        for (name, tensor) in entries {
            resources.create_variable(&name, tensor);
        }
        Ok(count)
    }

    /// Save variables to a file: the payload is sealed in a checksummed
    /// frame and written atomically (temp file + rename), so a reader
    /// never observes a half-written checkpoint and any later
    /// corruption is detected on restore.
    pub fn save(resources: &Resources, path: &Path) -> Result<()> {
        let bytes = frame::seal(&Self::save_to_bytes(resources)?);
        atomic_write(path, &bytes)
    }

    /// Restore variables from a file; returns how many were restored.
    /// A failed frame checksum (torn or bit-flipped file) reports
    /// [`CoreError::DataLoss`] naming the file.
    pub fn restore(resources: &Arc<Resources>, path: &Path) -> Result<usize> {
        let bytes = std::fs::read(path).map_err(|e| {
            CoreError::data_loss(format!("checkpoint `{}` unreadable: {e}", path.display()))
        })?;
        let payload = frame::open(&bytes).map_err(|_| {
            CoreError::data_loss(format!(
                "checkpoint `{}` failed checksum verification",
                path.display()
            ))
        })?;
        Self::restore_from_bytes(resources, payload)
    }

    /// Save variables as the next generation in `dir`'s checkpoint
    /// chain, updating the sealed `MANIFEST`. Both the generation file
    /// and the manifest are written atomically; the generation number
    /// is embedded in the sealed payload so a stale file swapped in
    /// under a newer manifest entry is detected on restore. Returns the
    /// generation number written.
    pub fn save_generation(resources: &Resources, dir: &Path) -> Result<u64> {
        std::fs::create_dir_all(dir).map_err(|e| {
            CoreError::Invalid(format!(
                "checkpoint dir `{}` unavailable: {e}",
                dir.display()
            ))
        })?;
        let entries = match read_manifest(dir) {
            Ok(entries) => entries,
            Err(CoreError::NotFound(_)) => Vec::new(),
            Err(e) => return Err(e),
        };
        let generation = entries.last().map(|e| e.generation + 1).unwrap_or(0);
        let file = generation_file_name(generation);

        let mut payload = Encoder::new();
        payload.put_u64(1, generation);
        payload.put_bytes(2, &Self::save_to_bytes(resources)?);
        atomic_write(&dir.join(&file), &frame::seal(&payload.finish()?))?;

        let mut chain = entries;
        chain.push(ManifestEntry { generation, file });
        write_manifest(dir, &chain)?;
        Ok(generation)
    }

    /// Restore the newest *valid* generation from `dir`'s checkpoint
    /// chain. Walks the manifest newest-first, skipping generations
    /// whose file fails checksum verification or carries a mismatched
    /// embedded generation (stale file), so a torn latest checkpoint
    /// falls back to the previous good one instead of aborting. A
    /// manifest entry whose file is *missing* is unrecoverable external
    /// damage and reports [`CoreError::DataLoss`] naming the path.
    /// Returns the generation restored.
    pub fn restore_latest(resources: &Arc<Resources>, dir: &Path) -> Result<u64> {
        let entries = read_manifest(dir)?;
        for entry in entries.iter().rev() {
            let path = dir.join(&entry.file);
            let bytes = match std::fs::read(&path) {
                Ok(b) => b,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                    return Err(CoreError::data_loss(format!(
                        "manifest `{}` references missing checkpoint `{}`",
                        dir.join(MANIFEST_FILE).display(),
                        path.display()
                    )));
                }
                Err(_) => continue,
            };
            let Ok(payload) = frame::open(&bytes) else {
                continue; // torn or bit-flipped: fall back to older gen
            };
            let Ok((embedded_gen, saver_bytes)) = decode_generation_payload(payload) else {
                continue;
            };
            if embedded_gen != entry.generation {
                continue; // stale file under a newer manifest entry
            }
            let Ok(parsed) = Self::parse_checkpoint(&saver_bytes) else {
                continue;
            };
            for (name, tensor) in parsed {
                resources.create_variable(&name, tensor);
            }
            return Ok(entry.generation);
        }
        Err(CoreError::data_loss(format!(
            "no valid checkpoint generation in `{}`",
            dir.display()
        )))
    }

    /// Newest generation number recorded in `dir`'s manifest, if any.
    pub fn latest_generation(dir: &Path) -> Result<Option<u64>> {
        match read_manifest(dir) {
            Ok(entries) => Ok(entries.last().map(|e| e.generation)),
            Err(CoreError::NotFound(_)) => Ok(None),
            Err(e) => Err(e),
        }
    }
}

// ---- Checkpoint generation chain ------------------------------------------

const MANIFEST_FILE: &str = "MANIFEST";

struct ManifestEntry {
    generation: u64,
    file: String,
}

fn generation_file_name(generation: u64) -> String {
    format!("ckpt-{generation:08}.tfhf")
}

/// Write `bytes` to `path` atomically: write a sibling temp file, then
/// rename over the destination. A crash mid-write leaves either the old
/// file or no file — never a torn one — and the rename is the commit
/// point of the checkpoint.
fn atomic_write(path: &Path, bytes: &[u8]) -> Result<()> {
    let mut tmp: PathBuf = path.to_path_buf();
    let mut name = tmp
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".tmp");
    tmp.set_file_name(name);
    std::fs::write(&tmp, bytes).map_err(|e| {
        CoreError::Invalid(format!("checkpoint write `{}` failed: {e}", tmp.display()))
    })?;
    std::fs::rename(&tmp, path).map_err(|e| {
        CoreError::Invalid(format!(
            "checkpoint rename `{}` -> `{}` failed: {e}",
            tmp.display(),
            path.display()
        ))
    })
}

fn write_manifest(dir: &Path, entries: &[ManifestEntry]) -> Result<()> {
    let mut enc = Encoder::new();
    for entry in entries {
        let mut inner = Encoder::new();
        inner.put_u64(1, entry.generation);
        inner.put_str(2, &entry.file);
        enc.put_bytes(1, &inner.finish()?);
    }
    atomic_write(&dir.join(MANIFEST_FILE), &frame::seal(&enc.finish()?))
}

fn read_manifest(dir: &Path) -> Result<Vec<ManifestEntry>> {
    let path = dir.join(MANIFEST_FILE);
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(CoreError::NotFound(format!(
                "checkpoint manifest `{}`",
                path.display()
            )));
        }
        Err(e) => {
            return Err(CoreError::Invalid(format!(
                "manifest `{}` unreadable: {e}",
                path.display()
            )));
        }
    };
    let payload = frame::open(&bytes).map_err(|_| {
        CoreError::data_loss(format!(
            "manifest `{}` failed checksum verification",
            path.display()
        ))
    })?;
    let mut d = Decoder::new(payload)?;
    let mut entries = Vec::new();
    while let Some((field, value)) = d.next_field()? {
        if field != 1 {
            continue;
        }
        let mut inner = Decoder::new(value.as_bytes()?)?;
        let mut generation = 0u64;
        let mut file = String::new();
        while let Some((f, v)) = inner.next_field()? {
            match f {
                1 => generation = v.as_u64()?,
                2 => file = v.as_str()?.to_string(),
                _ => {}
            }
        }
        if file.is_empty() {
            return Err(CoreError::data_loss(format!(
                "manifest `{}` entry for generation {generation} has no file",
                path.display()
            )));
        }
        entries.push(ManifestEntry { generation, file });
    }
    Ok(entries)
}

fn decode_generation_payload(payload: &[u8]) -> Result<(u64, Vec<u8>)> {
    let mut d = Decoder::new(payload)?;
    let mut generation = None;
    let mut bytes = None;
    while let Some((field, value)) = d.next_field()? {
        match field {
            1 => generation = Some(value.as_u64()?),
            2 => bytes = Some(value.as_bytes()?.to_vec()),
            _ => {}
        }
    }
    match (generation, bytes) {
        (Some(g), Some(b)) => Ok((g, b)),
        _ => Err(CoreError::data_loss("generation payload missing fields")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tensor_proto_roundtrips_all_dtypes() {
        let cases = vec![
            Tensor::from_f32([2, 2], vec![1.0, -2.0, 3.5, 0.0]).unwrap(),
            Tensor::from_f64([3], vec![1.0, f64::MIN_POSITIVE, -0.5]).unwrap(),
            Tensor::from_c128([2], vec![Complex64::new(1.0, -1.0), Complex64::I]).unwrap(),
            Tensor::from_i64([2], vec![i64::MIN, i64::MAX]).unwrap(),
            Tensor::from_i32([2], vec![i32::MIN, i32::MAX]).unwrap(),
            Tensor::from_u8([3], vec![0, 128, 255]).unwrap(),
            Tensor::scalar_f64(4.25),
        ];
        for t in cases {
            let bytes = TensorProto(t.clone()).to_bytes().unwrap();
            let back = TensorProto::decode(&bytes).unwrap().0;
            assert_eq!(back.shape(), t.shape());
            assert_eq!(back.dtype(), t.dtype());
            assert_eq!(
                format!("{:?}", back.data().unwrap()),
                format!("{:?}", t.data().unwrap())
            );
        }
    }

    #[test]
    fn synthetic_tensor_roundtrips_as_metadata() {
        let t = Tensor::synthetic(DType::F32, [1 << 16, 1 << 10], 1234);
        let bytes = TensorProto(t.clone()).to_bytes().unwrap();
        // Metadata-only: tiny on the wire despite the huge logical size.
        assert!(bytes.len() < 128);
        let back = TensorProto::decode(&bytes).unwrap().0;
        assert!(back.is_synthetic());
        assert_eq!(back.synthetic_seed(), Some(1234));
        assert_eq!(back.shape(), t.shape());
    }

    #[test]
    fn graphdef_roundtrip_preserves_structure() {
        let mut g = Graph::new();
        let a = g.constant(Tensor::scalar_f64(2.0));
        let p = g.placeholder(DType::F64, None);
        let c = g.add(a, p);
        let d = g.with_device(Placement::Gpu(0), |g| g.scale(c, 3.0));
        let bump = g.assign_add("v", d);
        g.add_control(bump, a).unwrap();

        let bytes = graph_to_bytes(&g).unwrap();
        let g2 = graph_from_bytes(&bytes).unwrap();
        assert_eq!(g2.len(), g.len());
        let n = g2.node(d);
        assert_eq!(n.op.name(), "Scale");
        assert_eq!(n.device, Placement::Gpu(0));
        assert_eq!(g2.node(c).inputs, vec![(a, 0), (p, 0)]);
        assert_eq!(g2.node(bump).control_inputs, vec![a]);

        // The deserialized graph executes identically.
        let s = crate::session::Session::new(
            Arc::new(g2),
            Resources::new(),
            crate::device::DeviceCtx::real(1),
        );
        s.resources().create_variable("v", Tensor::scalar_f64(0.0));
        let out = s.run(&[d], &[(p, Tensor::scalar_f64(1.0))]).unwrap();
        assert_eq!(out[0].scalar_value_f64().unwrap(), 9.0);
    }

    #[test]
    fn slice_concat_graph_roundtrip() {
        let mut g = Graph::new();
        let p = g.placeholder(DType::F64, None);
        let head = g.slice_range(p, 0, 2);
        let tail = g.slice_range(p, 2, 4);
        let swapped = g.concat_vecs(&[tail, head]);
        let bytes = graph_to_bytes(&g).unwrap();
        let g2 = graph_from_bytes(&bytes).unwrap();
        let sess = crate::session::Session::new(
            Arc::new(g2),
            Resources::new(),
            crate::device::DeviceCtx::real(0),
        );
        let out = sess
            .run(
                &[swapped],
                &[(p, Tensor::from_f64([4], vec![1., 2., 3., 4.]).unwrap())],
            )
            .unwrap();
        assert_eq!(out[0].as_f64().unwrap(), &[3., 4., 1., 2.]);
    }

    #[test]
    fn pyfunc_graphs_are_not_serializable() {
        let mut g = Graph::new();
        let a = g.constant(Tensor::scalar_f64(1.0));
        g.py_func("m", &[a], 1, 0.0, Arc::new(|_, i| Ok(i.to_vec())));
        assert!(graph_to_bytes(&g).is_err());
    }

    #[test]
    fn unknown_op_names_are_a_graph_error() {
        // A `Norm2` node as an older build wrote it: name, op, one input.
        let mut node = Encoder::new();
        node.put_str(1, "norm");
        node.put_str(2, "Norm2");
        node.put_packed_u64(3, &[0]);
        node.put_packed_u64(4, &[0]);
        let mut g = Graph::new();
        g.constant(Tensor::scalar_f64(3.0));
        let mut bytes = graph_to_bytes(&g).unwrap();
        let mut tail = Encoder::new();
        tail.put_bytes(1, &node.finish().unwrap());
        bytes.extend(tail.finish().unwrap());
        match graph_from_bytes(&bytes) {
            Err(CoreError::Graph(msg)) => assert_eq!(msg, "cannot deserialize op `Norm2`"),
            other => panic!("expected a graph error, got {:?}", other.map(|g| g.len())),
        }
    }

    #[test]
    fn checkpoint_roundtrip() {
        let res = Resources::new();
        res.create_variable("x", Tensor::from_f64([2], vec![1.0, 2.0]).unwrap());
        res.create_variable("step", Tensor::scalar_i64(41));
        let bytes = Saver::save_to_bytes(&res).unwrap();

        let res2 = Resources::new();
        let n = Saver::restore_from_bytes(&res2, &bytes).unwrap();
        assert_eq!(n, 2);
        assert_eq!(
            res2.variable("x").unwrap().read().as_f64().unwrap(),
            &[1.0, 2.0]
        );
        assert_eq!(
            res2.variable("step")
                .unwrap()
                .read()
                .scalar_value_i64()
                .unwrap(),
            41
        );
    }

    #[test]
    fn checkpoint_file_roundtrip() {
        let dir = std::env::temp_dir().join("tfhpc-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.ckpt");
        let res = Resources::new();
        res.create_variable("w", Tensor::scalar_f64(7.5));
        Saver::save(&res, &path).unwrap();
        let res2 = Resources::new();
        assert_eq!(Saver::restore(&res2, &path).unwrap(), 1);
        assert_eq!(
            res2.variable("w")
                .unwrap()
                .read()
                .scalar_value_f64()
                .unwrap(),
            7.5
        );
        std::fs::remove_file(&path).ok();
    }

    fn fresh_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("tfhpc-ckpt-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn corrupted_checkpoint_file_reports_data_loss() {
        let dir = fresh_dir("corrupt");
        let path = dir.join("model.ckpt");
        let res = Resources::new();
        res.create_variable("w", Tensor::scalar_f64(1.25));
        Saver::save(&res, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let err = Saver::restore(&Resources::new(), &path).unwrap_err();
        assert!(
            matches!(
                err,
                CoreError::DataLoss {
                    transient: false,
                    ..
                }
            ),
            "got {err:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn generation_chain_restores_latest_and_falls_back_when_torn() {
        let dir = fresh_dir("chain");
        let res = Resources::new();
        res.create_variable("x", Tensor::scalar_f64(1.0));
        assert_eq!(Saver::save_generation(&res, &dir).unwrap(), 0);
        res.variable("x")
            .unwrap()
            .assign(Tensor::scalar_f64(2.0))
            .unwrap();
        assert_eq!(Saver::save_generation(&res, &dir).unwrap(), 1);
        assert_eq!(Saver::latest_generation(&dir).unwrap(), Some(1));

        // Intact chain restores the newest generation.
        let fresh = Resources::new();
        assert_eq!(Saver::restore_latest(&fresh, &dir).unwrap(), 1);
        assert_eq!(
            fresh
                .variable("x")
                .unwrap()
                .read()
                .scalar_value_f64()
                .unwrap(),
            2.0
        );

        // Tear the latest generation file at EVERY byte offset: the
        // chain must always fall back to generation 0 without aborting.
        let latest = dir.join(generation_file_name(1));
        let pristine = std::fs::read(&latest).unwrap();
        for cut in 0..pristine.len() {
            std::fs::write(&latest, &pristine[..cut]).unwrap();
            let r = Resources::new();
            assert_eq!(
                Saver::restore_latest(&r, &dir).unwrap(),
                0,
                "cut at byte {cut} should fall back to gen 0"
            );
            assert_eq!(
                r.variable("x").unwrap().read().scalar_value_f64().unwrap(),
                1.0
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_generation_file_is_skipped() {
        let dir = fresh_dir("stale");
        let res = Resources::new();
        res.create_variable("x", Tensor::scalar_f64(10.0));
        Saver::save_generation(&res, &dir).unwrap();
        res.variable("x")
            .unwrap()
            .assign(Tensor::scalar_f64(20.0))
            .unwrap();
        Saver::save_generation(&res, &dir).unwrap();
        // Swap the old generation's bytes in under the new file name:
        // the frame checksum still passes, but the embedded generation
        // number does not match the manifest entry.
        let gen0 = std::fs::read(dir.join(generation_file_name(0))).unwrap();
        std::fs::write(dir.join(generation_file_name(1)), &gen0).unwrap();
        let r = Resources::new();
        assert_eq!(Saver::restore_latest(&r, &dir).unwrap(), 0);
        assert_eq!(
            r.variable("x").unwrap().read().scalar_value_f64().unwrap(),
            10.0
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_referencing_missing_file_reports_data_loss_with_path() {
        let dir = fresh_dir("missing");
        let res = Resources::new();
        res.create_variable("x", Tensor::scalar_f64(3.0));
        Saver::save_generation(&res, &dir).unwrap();
        let victim = dir.join(generation_file_name(0));
        std::fs::remove_file(&victim).unwrap();
        let err = Saver::restore_latest(&Resources::new(), &dir).unwrap_err();
        match &err {
            CoreError::DataLoss { what, transient } => {
                assert!(!transient);
                assert!(
                    what.contains(&victim.display().to_string()),
                    "error should name the missing file, got: {what}"
                );
            }
            other => panic!("expected DataLoss, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn all_generations_torn_reports_data_loss() {
        let dir = fresh_dir("all-torn");
        let res = Resources::new();
        res.create_variable("x", Tensor::scalar_f64(5.0));
        Saver::save_generation(&res, &dir).unwrap();
        let path = dir.join(generation_file_name(0));
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let err = Saver::restore_latest(&Resources::new(), &dir).unwrap_err();
        assert!(matches!(err, CoreError::DataLoss { .. }), "got {err:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
