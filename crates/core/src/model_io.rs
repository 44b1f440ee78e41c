//! Saving and loading trained SNS models, plus the **versioned model
//! zoo**: a directory of weights files with a JSON manifest carrying model
//! id, technology corner, train-step provenance and an FNV-128 weight
//! hash. The zoo is the hand-off point between the `sns-train`
//! label-factory daemon (writer) and `sns-serve` hot-swap (reader) — all
//! writes go through `sns_rt::fsx::write_atomic`, so a reader never
//! observes a torn manifest or weights file, and every load re-hashes the
//! weight bytes against the manifest so a stale or corrupted checkpoint
//! surfaces as a structured [`ZooError`] instead of ever being served.
//!
//! A model is one little-endian byte encoding, private to this module:
//!
//! 1. the 8-byte magic `SNSWGT01`;
//! 2. the header: `vocab`, `dim`, `heads`, `layers`, `ffn_dim`,
//!    `max_len` (`u64` each), the sampler's `k` (`u32`), `max_paths`,
//!    `max_len` and `seed` (`u64` each);
//! 3. the path, design and correction [`LabelScaler`]s, each as its three
//!    means then its three standard deviations (`f32`);
//! 4. every parameter in visit order, Circuitformer first, then the three
//!    Aggregation MLPs, each as `rows`, `cols` (`u32`) and `rows·cols`
//!    `f32` ([`sns_nn::serialize`]).
//!
//! The same bytes are what [`save_model`] and [`save_to_zoo`] write, what
//! [`load_model`] and [`load_from_zoo`] read, and what
//! [`model_weight_hash`] hashes.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use sns_rt::hash::fnv128_bytes;
use sns_rt::json::{Json, JsonError};
use sns_rt::rng::StdRng;
use sns_vsynth::scaling::TechNode;

use sns_circuitformer::{Circuitformer, CircuitformerConfig, LabelScaler};
use sns_graphir::Vocab;
use sns_nn::{read_params, write_params, ByteReader};
use sns_sampler::SampleConfig;

use crate::aggmlp::AggMlp;
use crate::cache::PathPredictionCache;
use crate::predictor::SnsModel;

/// The first eight bytes of every weights file.
const MAGIC: [u8; 8] = *b"SNSWGT01";

/// Encodes `model` into its weights bytes (module docs).
fn model_bytes(model: &SnsModel) -> Vec<u8> {
    let cfg = model.circuitformer().config();
    let sample = model.sample_config();
    // The Circuitformer's data plus room for the header, the shapes and
    // the three small MLPs, so the buffer is allocated once.
    let mut out = Vec::with_capacity(4 * cfg.parameter_count().unwrap_or(0) + (1 << 16));
    out.extend_from_slice(&MAGIC);
    for v in [cfg.vocab, cfg.dim, cfg.heads, cfg.layers, cfg.ffn_dim, cfg.max_len] {
        out.extend_from_slice(&(v as u64).to_le_bytes());
    }
    out.extend_from_slice(&sample.k.to_le_bytes());
    for v in [sample.max_paths as u64, sample.max_len as u64, sample.seed] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    for scaler in [&model.path_scaler, &model.design_scaler, &model.corr_scaler] {
        let (mean, std) = scaler.parts();
        for v in mean.iter().chain(&std) {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    write_params(&mut out, |f| model.circuitformer.visit(f));
    for m in &model.mlps {
        write_params(&mut out, |f| m.visit(f));
    }
    out
}

fn read_usize(r: &mut ByteReader<'_>) -> Result<usize, String> {
    let v = r.u64()?;
    usize::try_from(v).map_err(|_| format!("header value {v} overflows usize"))
}

fn read_scaler(r: &mut ByteReader<'_>) -> Result<LabelScaler, String> {
    let mut v = [0.0f32; 6];
    for x in &mut v {
        *x = r.f32()?;
    }
    Ok(LabelScaler::from_parts([v[0], v[1], v[2]], [v[3], v[4], v[5]]))
}

/// Decodes weights bytes into a runnable [`SnsModel`]. A header the
/// Circuitformer cannot be built or run with, or one that claims more
/// parameters than the bytes hold, is an `Err` before anything that size
/// is allocated — never a panic at construction or on the first request.
fn model_from_bytes(bytes: &[u8]) -> Result<SnsModel, String> {
    let mut r = ByteReader::new(bytes);
    if r.take(MAGIC.len()).ok() != Some(&MAGIC[..]) {
        return Err("not an SNS weights file (bad magic)".into());
    }
    let cfg = CircuitformerConfig {
        vocab: read_usize(&mut r)?,
        dim: read_usize(&mut r)?,
        heads: read_usize(&mut r)?,
        layers: read_usize(&mut r)?,
        ffn_dim: read_usize(&mut r)?,
        max_len: read_usize(&mut r)?,
    };
    let sample = SampleConfig {
        k: r.u32()?,
        max_paths: read_usize(&mut r)?,
        max_len: read_usize(&mut r)?,
        seed: r.u64()?,
    };
    let path_scaler = read_scaler(&mut r)?;
    let design_scaler = read_scaler(&mut r)?;
    let corr_scaler = read_scaler(&mut r)?;
    let vocab = Vocab::new();
    if cfg.vocab != vocab.len() {
        return Err(format!("vocab {} != the {}-token vocabulary", cfg.vocab, vocab.len()));
    }
    if cfg.heads == 0 || cfg.dim == 0 || !cfg.dim.is_multiple_of(cfg.heads) {
        return Err(format!("dim {} is not a positive multiple of heads {}", cfg.dim, cfg.heads));
    }
    if cfg.max_len < 2 {
        return Err(format!("max_len {} leaves no room for a path token", cfg.max_len));
    }
    if sample.k == 0 {
        return Err("sample_k 0: the sampler follows ⌈d / k⌉ successors, k ≥ 1".into());
    }
    if cfg.parameter_count().is_none_or(|n| n > r.remaining() / 4) {
        return Err(format!("{cfg:?} needs more than the {} bytes left", r.remaining()));
    }
    let mut rng = StdRng::seed_from_u64(0);
    let mut circuitformer = Circuitformer::new(cfg, &mut rng);
    read_params(&mut r, |f| circuitformer.visit_mut(f))?;
    let mut mlps = [
        AggMlp::new(5 + vocab.len(), 0),
        AggMlp::new(5 + vocab.len(), 0),
        AggMlp::new(5 + vocab.len(), 0),
    ];
    for m in &mut mlps {
        read_params(&mut r, |f| m.visit_mut(f))?;
    }
    r.finish()?;
    Ok(SnsModel {
        circuitformer,
        path_scaler,
        design_scaler,
        corr_scaler,
        mlps,
        sample,
        vocab,
        cache: PathPredictionCache::new(),
    })
}

/// Writes a trained model's weights bytes to `path` (atomically: temp
/// file + rename, so a concurrent reader sees old or new bytes, never a
/// mix).
///
/// # Errors
///
/// Returns an I/O error message.
pub fn save_model(model: &SnsModel, path: impl AsRef<Path>) -> Result<(), String> {
    sns_rt::fsx::write_atomic(path.as_ref(), &model_bytes(model)).map_err(|e| e.to_string())
}

/// Loads a model written by [`save_model`].
///
/// # Errors
///
/// Returns an I/O, format, or shape-mismatch error message.
pub fn load_model(path: impl AsRef<Path>) -> Result<SnsModel, String> {
    let bytes = fs::read(path).map_err(|e| e.to_string())?;
    model_from_bytes(&bytes)
}

/// FNV-128 hash of a model's weights, as 32 lowercase hex digits.
///
/// Hashes the exact bytes [`save_model`] writes, so the hash of an
/// in-memory model equals the hash of its checkpoint file — the
/// invariant the zoo's integrity check and sns-serve's cache keying rely
/// on.
pub fn model_weight_hash(model: &SnsModel) -> String {
    hash_hex(&model_bytes(model))
}

fn hash_hex(bytes: &[u8]) -> String {
    let [a, b] = fnv128_bytes(bytes);
    format!("{a:016x}{b:016x}")
}

/// A structured model-zoo failure. Every variant is a recoverable,
/// reportable condition — zoo operations never panic on bad input, a
/// missing file, or a corrupted manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ZooError {
    /// Filesystem-level failure (create, read, write, rename).
    Io(String),
    /// The manifest is missing, unparsable, or structurally invalid.
    Manifest(String),
    /// A manifest entry points at a weights file that does not exist.
    MissingWeights(String),
    /// Weights bytes exist but fail the manifest hash check or do not
    /// deserialize into a runnable model.
    BadWeights(String),
    /// No manifest entry with the requested model id.
    UnknownModel(String),
    /// The zoo has a manifest but zero entries.
    Empty,
}

impl fmt::Display for ZooError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ZooError::Io(m) => write!(f, "zoo I/O error: {m}"),
            ZooError::Manifest(m) => write!(f, "zoo manifest error: {m}"),
            ZooError::MissingWeights(m) => write!(f, "zoo weights missing: {m}"),
            ZooError::BadWeights(m) => write!(f, "zoo weights invalid: {m}"),
            ZooError::UnknownModel(m) => write!(f, "unknown model id: {m}"),
            ZooError::Empty => write!(f, "zoo manifest has no entries"),
        }
    }
}

/// One checkpoint's manifest record: identity, provenance, and the
/// integrity hash of its weights file.
#[derive(Debug, Clone, PartialEq)]
pub struct ZooEntry {
    /// Unique model id (e.g. `sns-n15-000040`).
    pub id: String,
    /// Weights file name, relative to the zoo directory.
    pub file: String,
    /// FNV-128 of the weights bytes, 32 hex digits ([`model_weight_hash`]).
    pub weight_hash: String,
    /// Technology corner the labels were scaled to, in nanometres
    /// (Stillmaker–Baas scaling; 15 = the paper's FreePDK15 target).
    pub tech_nm: u32,
    /// Fine-tune steps taken when this checkpoint was written.
    pub train_steps: u64,
    /// Designs labeled by vsynth when this checkpoint was written.
    pub labeled_designs: u64,
    /// The daemon seed that produced this lineage.
    pub seed: u64,
}

impl ZooEntry {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("id", Json::Str(self.id.clone())),
            ("file", Json::Str(self.file.clone())),
            ("weight_hash", Json::Str(self.weight_hash.clone())),
            ("tech_nm", Json::Int(self.tech_nm as i64)),
            ("train_steps", Json::UInt(self.train_steps)),
            ("labeled_designs", Json::UInt(self.labeled_designs)),
            ("seed", Json::UInt(self.seed)),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(ZooEntry {
            id: v.get("id")?.as_str()?.to_string(),
            file: v.get("file")?.as_str()?.to_string(),
            weight_hash: v.get("weight_hash")?.as_str()?.to_string(),
            tech_nm: u32::try_from(v.get("tech_nm")?.as_u64()?)
                .map_err(|_| JsonError("tech_nm overflows u32".into()))?,
            train_steps: v.get("train_steps")?.as_u64()?,
            labeled_designs: v.get("labeled_designs")?.as_u64()?,
            seed: v.get("seed")?.as_u64()?,
        })
    }

    /// The [`TechNode`] for `tech_nm`, if it names a known node.
    pub fn tech(&self) -> Option<TechNode> {
        TechNode::ALL.into_iter().find(|t| t.nanometres() == self.tech_nm)
    }
}

/// The zoo manifest: an append-ordered list of checkpoints. Serialized
/// as `manifest.json` in the zoo directory; rewritten atomically on
/// every [`save_to_zoo`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ZooManifest {
    /// Checkpoints, oldest first.
    pub entries: Vec<ZooEntry>,
}

/// The manifest file name inside a zoo directory.
pub const ZOO_MANIFEST: &str = "manifest.json";

impl ZooManifest {
    fn to_json(&self) -> Json {
        Json::obj(vec![(
            "models",
            Json::Arr(self.entries.iter().map(|e| e.to_json()).collect()),
        )])
    }

    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(ZooManifest {
            entries: v
                .get("models")?
                .as_arr()?
                .iter()
                .map(ZooEntry::from_json)
                .collect::<Result<Vec<_>, _>>()?,
        })
    }

    /// Reads and parses `dir/manifest.json`.
    ///
    /// # Errors
    ///
    /// [`ZooError::Manifest`] when the file is absent or malformed.
    pub fn load(dir: &Path) -> Result<Self, ZooError> {
        let path = dir.join(ZOO_MANIFEST);
        let text = fs::read_to_string(&path)
            .map_err(|e| ZooError::Manifest(format!("{}: {e}", path.display())))?;
        let parsed = sns_rt::json::parse(&text)
            .map_err(|e| ZooError::Manifest(format!("{}: {e}", path.display())))?;
        Self::from_json(&parsed)
            .map_err(|e| ZooError::Manifest(format!("{}: {e}", path.display())))
    }

    /// The newest checkpoint, if any.
    pub fn latest(&self) -> Option<&ZooEntry> {
        self.entries.last()
    }

    /// The checkpoint with the given id, if any.
    pub fn find(&self, id: &str) -> Option<&ZooEntry> {
        self.entries.iter().find(|e| e.id == id)
    }
}

/// Provenance for a checkpoint being written to the zoo.
#[derive(Debug, Clone)]
pub struct ZooCheckpointMeta {
    /// Unique model id; [`save_to_zoo`] rejects duplicates.
    pub id: String,
    /// Technology corner the daemon's labels target.
    pub tech: TechNode,
    /// Fine-tune steps taken so far.
    pub train_steps: u64,
    /// Designs labeled so far.
    pub labeled_designs: u64,
    /// Daemon seed.
    pub seed: u64,
}

/// Writes `model` into the zoo at `dir` (created if absent) and appends
/// its manifest entry: weights first, manifest second, both atomically —
/// so a crash between the two leaves an orphan weights file (harmless)
/// rather than a manifest entry pointing at nothing.
///
/// # Errors
///
/// [`ZooError::Io`] on filesystem failure, [`ZooError::Manifest`] if an
/// existing manifest is unreadable or already contains `meta.id`.
pub fn save_to_zoo(
    model: &SnsModel,
    dir: &Path,
    meta: &ZooCheckpointMeta,
) -> Result<ZooEntry, ZooError> {
    fs::create_dir_all(dir).map_err(|e| ZooError::Io(format!("{}: {e}", dir.display())))?;
    let mut manifest = if dir.join(ZOO_MANIFEST).exists() {
        ZooManifest::load(dir)?
    } else {
        ZooManifest::default()
    };
    if manifest.find(&meta.id).is_some() {
        return Err(ZooError::Manifest(format!("duplicate model id {}", meta.id)));
    }
    let bytes = model_bytes(model);
    let entry = ZooEntry {
        id: meta.id.clone(),
        file: format!("{}.bin", meta.id),
        weight_hash: hash_hex(&bytes),
        tech_nm: meta.tech.nanometres(),
        train_steps: meta.train_steps,
        labeled_designs: meta.labeled_designs,
        seed: meta.seed,
    };
    let weights_path = dir.join(&entry.file);
    sns_rt::fsx::write_atomic(&weights_path, &bytes)
        .map_err(|e| ZooError::Io(format!("{}: {e}", weights_path.display())))?;
    manifest.entries.push(entry.clone());
    let manifest_path = dir.join(ZOO_MANIFEST);
    sns_rt::fsx::write_atomic(&manifest_path, manifest.to_json().print().as_bytes())
        .map_err(|e| ZooError::Io(format!("{}: {e}", manifest_path.display())))?;
    Ok(entry)
}

/// Loads a model from the zoo at `dir`: the checkpoint named by `id`, or
/// the newest one when `id` is `None`. The weights bytes are re-hashed
/// against the manifest before deserialization, so silent corruption (or
/// a half-migrated zoo) is caught here rather than served.
///
/// # Errors
///
/// [`ZooError::Manifest`] / [`ZooError::Empty`] / [`ZooError::UnknownModel`]
/// for manifest-level problems, [`ZooError::MissingWeights`] /
/// [`ZooError::BadWeights`] for weights-level ones.
pub fn load_from_zoo(dir: &Path, id: Option<&str>) -> Result<(SnsModel, ZooEntry), ZooError> {
    let manifest = ZooManifest::load(dir)?;
    let entry = match id {
        Some(id) => manifest.find(id).ok_or_else(|| ZooError::UnknownModel(id.to_string()))?,
        None => manifest.latest().ok_or(ZooError::Empty)?,
    }
    .clone();
    let weights_path: PathBuf = dir.join(&entry.file);
    let bytes = match fs::read(&weights_path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(ZooError::MissingWeights(format!("{}", weights_path.display())));
        }
        Err(e) => return Err(ZooError::Io(format!("{}: {e}", weights_path.display()))),
    };
    let actual = hash_hex(&bytes);
    if actual != entry.weight_hash {
        return Err(ZooError::BadWeights(format!(
            "{}: hash {actual} != manifest {}",
            weights_path.display(),
            entry.weight_hash
        )));
    }
    let model = model_from_bytes(&bytes)
        .map_err(|e| ZooError::BadWeights(format!("{}: {e}", weights_path.display())))?;
    Ok((model, entry))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::AugmentConfig;
    use crate::train::{train_sns, SnsTrainConfig};
    use sns_circuitformer::TrainConfig;
    use sns_designs::{nonlinear, vector};

    #[test]
    fn save_load_round_trip_preserves_predictions() {
        let designs = vec![vector::simd_alu(2, 8), nonlinear::piecewise(4, 8)];
        let mut cfg = SnsTrainConfig::fast();
        cfg.circuitformer = CircuitformerConfig {
            dim: 32,
            ffn_dim: 64,
            max_len: 64,
            ..CircuitformerConfig::fast()
        };
        cfg.cf_train = TrainConfig { epochs: 2, batch_size: 32, threads: 1, ..TrainConfig::fast() };
        cfg.mlp_train = crate::aggmlp::MlpTrainConfig { epochs: 20, ..crate::aggmlp::MlpTrainConfig::fast() };
        cfg.augment = AugmentConfig::none();
        let (model, _) = train_sns(&designs, &cfg);
        let before = model.predict_verilog(&designs[0].verilog, &designs[0].top).unwrap();

        let dir = std::env::temp_dir().join(format!("sns_model_test_{}.bin", std::process::id()));
        save_model(&model, &dir).unwrap();
        // The weight hash is the FNV-128 of exactly the bytes on disk.
        let written = std::fs::read(&dir).unwrap();
        assert_eq!(model_weight_hash(&model), hash_hex(&written));
        let loaded = load_model(&dir).unwrap();
        assert_eq!(model_weight_hash(&loaded), model_weight_hash(&model));
        let after = loaded.predict_verilog(&designs[0].verilog, &designs[0].top).unwrap();
        assert_eq!(before.timing_ps, after.timing_ps);
        assert_eq!(before.area_um2, after.area_um2);
        assert_eq!(before.power_mw, after.power_mw);
        let _ = std::fs::remove_file(dir);
    }

    #[test]
    fn load_rejects_garbage() {
        let name = format!("sns_model_garbage_{}.bin", std::process::id());
        let dir = std::env::temp_dir().join(name);
        std::fs::write(&dir, "{not json").unwrap();
        assert!(load_model(&dir).is_err());
        let _ = std::fs::remove_file(dir);
    }

    fn tiny_model() -> SnsModel {
        model_of_shape(CircuitformerConfig {
            dim: 32,
            ffn_dim: 64,
            max_len: 64,
            ..CircuitformerConfig::fast()
        })
    }

    fn model_of_shape(circuitformer: CircuitformerConfig) -> SnsModel {
        let designs = vec![vector::simd_alu(2, 8), nonlinear::piecewise(4, 8)];
        let mut cfg = SnsTrainConfig::fast();
        cfg.circuitformer = circuitformer;
        cfg.cf_train = TrainConfig { epochs: 2, batch_size: 32, threads: 1, ..TrainConfig::fast() };
        cfg.mlp_train =
            crate::aggmlp::MlpTrainConfig { epochs: 20, ..crate::aggmlp::MlpTrainConfig::fast() };
        cfg.augment = AugmentConfig::none();
        train_sns(&designs, &cfg).0
    }

    fn zoo_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("sns_zoo_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn zoo_round_trip_three_versions_and_structured_errors() {
        let dir = zoo_dir("rt");
        let mut model = tiny_model();
        // Three genuinely distinct versions: perturbing the sample seed
        // changes the serialized bytes (and therefore the weight hash)
        // without retraining three models.
        let mut hashes = Vec::new();
        for (i, seed) in [1u64, 2, 3].iter().enumerate() {
            model.sample.seed = *seed;
            let meta = ZooCheckpointMeta {
                id: format!("m{i}"),
                tech: TechNode::N15,
                train_steps: i as u64 * 10,
                labeled_designs: i as u64 * 100,
                seed: 7,
            };
            let entry = save_to_zoo(&model, &dir, &meta).unwrap();
            assert_eq!(entry.weight_hash, model_weight_hash(&model));
            assert_eq!(entry.tech(), Some(TechNode::N15));
            hashes.push(entry.weight_hash);
        }
        assert_eq!(hashes.iter().collect::<std::collections::HashSet<_>>().len(), 3);

        let manifest = ZooManifest::load(&dir).unwrap();
        assert_eq!(manifest.entries.len(), 3);
        assert_eq!(manifest.latest().unwrap().id, "m2");
        assert_eq!(manifest.find("m1").unwrap().train_steps, 10);

        // Duplicate ids are rejected.
        let dup = ZooCheckpointMeta {
            id: "m1".into(),
            tech: TechNode::N15,
            train_steps: 0,
            labeled_designs: 0,
            seed: 7,
        };
        assert!(matches!(save_to_zoo(&model, &dir, &dup), Err(ZooError::Manifest(_))));

        // Load by id and by latest; both verify hashes and run.
        let (m1, e1) = load_from_zoo(&dir, Some("m1")).unwrap();
        assert_eq!(e1.id, "m1");
        assert_eq!(m1.sample_config().seed, 2);
        assert_eq!(model_weight_hash(&m1), e1.weight_hash);
        let (latest, el) = load_from_zoo(&dir, None).unwrap();
        assert_eq!(el.id, "m2");
        assert_eq!(latest.sample_config().seed, 3);

        // Unknown id.
        assert!(matches!(load_from_zoo(&dir, Some("nope")), Err(ZooError::UnknownModel(_))));

        // Missing weights: delete m0's file.
        std::fs::remove_file(dir.join("m0.bin")).unwrap();
        assert!(matches!(load_from_zoo(&dir, Some("m0")), Err(ZooError::MissingWeights(_))));

        // Corrupted weights: truncate m1's file → hash mismatch.
        std::fs::write(dir.join("m1.bin"), "{}").unwrap();
        assert!(matches!(load_from_zoo(&dir, Some("m1")), Err(ZooError::BadWeights(_))));

        // Corrupted manifest.
        std::fs::write(dir.join(ZOO_MANIFEST), "{broken").unwrap();
        assert!(matches!(load_from_zoo(&dir, None), Err(ZooError::Manifest(_))));

        // Empty manifest.
        std::fs::write(dir.join(ZOO_MANIFEST), "{\"models\": []}").unwrap();
        assert!(matches!(load_from_zoo(&dir, None), Err(ZooError::Empty)));

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A zoo holding one tiny checkpoint, `m0`, whose weights a test
    /// replaces. Each [`load`](Self::load) rewrites the manifest hash to
    /// match the new bytes, so the integrity check passes and only the
    /// decoder stands between the bytes and a panic.
    struct Tampered {
        dir: std::path::PathBuf,
        model: SnsModel,
        weights: Vec<u8>,
        manifest: String,
        hash: String,
    }

    impl Tampered {
        fn new(tag: &str, model: SnsModel) -> Self {
            let dir = zoo_dir(tag);
            let meta = ZooCheckpointMeta {
                id: "m0".into(),
                tech: TechNode::N15,
                train_steps: 0,
                labeled_designs: 0,
                seed: 7,
            };
            let hash = save_to_zoo(&model, &dir, &meta).unwrap().weight_hash;
            let weights = std::fs::read(dir.join("m0.bin")).unwrap();
            let manifest = std::fs::read_to_string(dir.join(ZOO_MANIFEST)).unwrap();
            Tampered { dir, model, weights, manifest, hash }
        }

        fn load(&self, bytes: &[u8]) -> Result<(SnsModel, ZooEntry), ZooError> {
            std::fs::write(self.dir.join("m0.bin"), bytes).unwrap();
            let rehashed = self.manifest.replace(&self.hash, &hash_hex(bytes));
            std::fs::write(self.dir.join(ZOO_MANIFEST), rehashed).unwrap();
            load_from_zoo(&self.dir, Some("m0"))
        }
    }

    impl Drop for Tampered {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }

    /// Byte offsets of the header fields in a weights file.
    const VOCAB_AT: usize = 8;
    const DIM_AT: usize = 16;
    const HEADS_AT: usize = 24;
    const LAYERS_AT: usize = 32;
    const MAX_LEN_AT: usize = 48;
    const SAMPLE_K_AT: usize = 56;
    /// Where the first tensor's shape starts: magic, six `u64`s, a `u32`,
    /// three `u64`s, then three scalers of six `f32`s.
    const TENSORS_AT: usize = 8 + 6 * 8 + 4 + 3 * 8 + 3 * 6 * 4;

    #[test]
    fn zoo_rejects_hash_consistent_weights_with_a_bad_header() {
        let zoo = Tampered::new("header", tiny_model());
        assert!(zoo.load(&zoo.weights).is_ok(), "the unedited checkpoint loads");
        // heads 0; dim not a multiple of heads (2); a vocab other than
        // the 79-token one; max_len too short to hold CLS plus a token;
        // a sampling density of 0 (`⌈d / 0⌉` at the first prediction).
        let bad = [
            ("heads", HEADS_AT, 0u64),
            ("dim", DIM_AT, 33),
            ("vocab", VOCAB_AT, 80),
            ("max_len", MAX_LEN_AT, 1),
        ];
        for (field, at, value) in bad {
            let mut edited = zoo.weights.clone();
            edited[at..at + 8].copy_from_slice(&value.to_le_bytes());
            assert!(
                matches!(zoo.load(&edited), Err(ZooError::BadWeights(_))),
                "{field} = {value} must be rejected as bad weights"
            );
        }
        let mut edited = zoo.weights.clone();
        edited[SAMPLE_K_AT..SAMPLE_K_AT + 4].copy_from_slice(&0u32.to_le_bytes());
        assert!(
            matches!(zoo.load(&edited), Err(ZooError::BadWeights(_))),
            "sample_k = 0 must be rejected as bad weights"
        );
    }

    /// The serde-era JSON layout of `model`, which this loader dropped.
    fn legacy_json(model: &SnsModel) -> String {
        fn state(visit: impl FnOnce(&mut dyn FnMut(&sns_nn::Param))) -> Json {
            let mut tensors = Vec::new();
            visit(&mut |p| {
                tensors.push(Json::Arr(vec![
                    Json::Str(p.name.clone()),
                    Json::Int(p.value.rows() as i64),
                    Json::Int(p.value.cols() as i64),
                    Json::Arr(p.value.as_slice().iter().map(|&v| Json::Num(v as f64)).collect()),
                ]))
            });
            Json::obj(vec![("tensors", Json::Arr(tensors))])
        }
        let scaler = |s: &LabelScaler| {
            let (mean, std) = s.parts();
            let arr = |v: [f32; 3]| Json::Arr(v.iter().map(|&x| Json::Num(x as f64)).collect());
            Json::obj(vec![("mean", arr(mean)), ("std", arr(std))])
        };
        let cfg = model.circuitformer().config();
        let sample = model.sample_config();
        Json::obj(vec![
            ("vocab", Json::Int(cfg.vocab as i64)),
            ("dim", Json::Int(cfg.dim as i64)),
            ("heads", Json::Int(cfg.heads as i64)),
            ("layers", Json::Int(cfg.layers as i64)),
            ("ffn_dim", Json::Int(cfg.ffn_dim as i64)),
            ("max_len", Json::Int(cfg.max_len as i64)),
            ("sample_k", Json::Int(sample.k as i64)),
            ("sample_max_paths", Json::Int(sample.max_paths as i64)),
            ("sample_max_len", Json::Int(sample.max_len as i64)),
            ("sample_seed", Json::UInt(sample.seed)),
            ("circuitformer", state(|f| model.circuitformer().visit(f))),
            ("path_scaler", scaler(&model.path_scaler)),
            ("design_scaler", scaler(&model.design_scaler)),
            ("corr_scaler", scaler(&model.corr_scaler)),
            (
                "mlps",
                Json::Arr(model.mlps.iter().map(|m| state(|f| m.visit(f))).collect()),
            ),
        ])
        .print()
    }

    #[test]
    fn decoder_is_total_over_truncation_mutation_and_legacy_files() {
        // The smallest shape that still has two heads and two layers, so
        // a few thousand loads stay quick.
        let shape =
            CircuitformerConfig { dim: 8, ffn_dim: 8, max_len: 16, ..CircuitformerConfig::fast() };
        let zoo = Tampered::new("total", model_of_shape(shape));
        let good = &zoo.weights;
        let verilog = "module t(input [3:0] a, b, output [3:0] y); assign y = a + b; endmodule";
        assert!(zoo.model.predict_verilog(verilog, "t").is_ok());
        let bad = |r: Result<(SnsModel, ZooEntry), ZooError>, what: &str| match r {
            Err(ZooError::BadWeights(_)) => {}
            Err(e) => panic!("{what}: {e}"),
            Ok(_) => panic!("{what}: loaded"),
        };

        // A stride of prefixes: none is a whole model.
        for len in (0..good.len()).step_by(good.len() / 200) {
            bad(zoo.load(&good[..len]), &format!("prefix of {len} bytes"));
        }
        // One trailing byte.
        let mut long = good.clone();
        long.push(0);
        bad(zoo.load(&long), "one trailing byte");

        // Seeded single-byte mutations: a third anywhere, a third in the
        // header and scalers, a third in a tensor shape. Each loads (a
        // changed value) or is refused; a model that loads also predicts.
        let mut shapes = Vec::new();
        let mut at = TENSORS_AT;
        while at < good.len() {
            shapes.extend(at..at + 8);
            let dim = |o: usize| u32::from_le_bytes(good[o..o + 4].try_into().unwrap()) as usize;
            at += 8 + 4 * dim(at) * dim(at + 4);
        }
        assert_eq!(at, good.len(), "tensor walk ends at the end of the file");
        assert_eq!(shapes.len(), 8 * (40 + 3 * 8), "Circuitformer and MLP tensors");
        let mut rng = StdRng::seed_from_u64(31);
        let mut loaded = 0;
        for i in 0..3000 {
            let at = match i % 3 {
                0 => rng.gen_range(0..good.len()),
                1 => rng.gen_range(0..TENSORS_AT),
                _ => shapes[rng.gen_range(0..shapes.len())],
            };
            let mut edited = good.clone();
            edited[at] ^= rng.gen_range(1u8..255);
            match zoo.load(&edited) {
                Err(ZooError::BadWeights(_)) => {}
                Err(e) => panic!("byte {at}: {e}"),
                Ok((m, _)) => {
                    loaded += 1;
                    if at < TENSORS_AT {
                        let _ = m.predict_verilog(verilog, "t");
                    }
                }
            }
        }
        assert!(loaded > 0, "value mutations still load");

        // A header whose Circuitformer would not fit in the bytes left is
        // refused before it is built, and so is a tensor claiming more
        // data than remains.
        let mut edited = good.clone();
        edited[LAYERS_AT..LAYERS_AT + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
        bad(zoo.load(&edited), "a 2^40-layer header");
        let mut edited = good.clone();
        edited[TENSORS_AT..TENSORS_AT + 8].copy_from_slice(&[0xff; 8]);
        bad(zoo.load(&edited), "a 2^32 x 2^32 tensor");

        // A hash-consistent file in the serde-era JSON layout.
        bad(zoo.load(legacy_json(&zoo.model).as_bytes()), "legacy JSON weights");
        assert!(zoo.load(good).is_ok(), "the unedited checkpoint still loads");
    }

    #[test]
    fn zoo_on_missing_directory_is_a_structured_error() {
        let dir = zoo_dir("absent");
        assert!(matches!(load_from_zoo(&dir, None), Err(ZooError::Manifest(_))));
    }
}
