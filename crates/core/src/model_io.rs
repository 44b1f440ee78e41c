//! Saving and loading trained SNS models (JSON via `sns_rt::json`),
//! plus the **versioned model zoo**: a directory of checkpoints with a
//! manifest carrying model id, technology corner, train-step provenance
//! and an FNV-128 weight hash. The zoo is the hand-off point between the
//! `sns-train` label-factory daemon (writer) and `sns-serve` hot-swap
//! (reader) — all writes go through `sns_rt::fsx::write_atomic`, so a
//! reader never observes a torn manifest or weights file, and every load
//! re-hashes the weight bytes against the manifest so a stale or
//! corrupted checkpoint surfaces as a structured [`ZooError`] instead of
//! ever being served.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use sns_rt::hash::fnv128_bytes;
use sns_rt::json::{Json, JsonError};
use sns_rt::rng::StdRng;
use sns_vsynth::scaling::TechNode;

use sns_circuitformer::{Circuitformer, CircuitformerConfig, LabelScaler};
use sns_graphir::Vocab;
use sns_nn::{load_params, save_params, ModelState};
use sns_sampler::SampleConfig;

use crate::aggmlp::AggMlp;
use crate::cache::PathPredictionCache;
use crate::predictor::SnsModel;

/// The serialized form of a trained model. The JSON field layout matches
/// what the serde derive used to write, so pre-migration model files
/// still load.
#[derive(Debug, Clone)]
pub struct SavedModel {
    vocab: usize,
    dim: usize,
    heads: usize,
    layers: usize,
    ffn_dim: usize,
    max_len: usize,
    sample_k: u32,
    sample_max_paths: usize,
    sample_max_len: usize,
    sample_seed: u64,
    circuitformer: ModelState,
    path_scaler: LabelScaler,
    design_scaler: LabelScaler,
    corr_scaler: LabelScaler,
    mlps: Vec<ModelState>,
}

impl SavedModel {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("vocab", Json::Int(self.vocab as i64)),
            ("dim", Json::Int(self.dim as i64)),
            ("heads", Json::Int(self.heads as i64)),
            ("layers", Json::Int(self.layers as i64)),
            ("ffn_dim", Json::Int(self.ffn_dim as i64)),
            ("max_len", Json::Int(self.max_len as i64)),
            ("sample_k", Json::Int(self.sample_k as i64)),
            ("sample_max_paths", Json::Int(self.sample_max_paths as i64)),
            ("sample_max_len", Json::Int(self.sample_max_len as i64)),
            ("sample_seed", Json::UInt(self.sample_seed)),
            ("circuitformer", self.circuitformer.to_json()),
            ("path_scaler", self.path_scaler.to_json()),
            ("design_scaler", self.design_scaler.to_json()),
            ("corr_scaler", self.corr_scaler.to_json()),
            ("mlps", Json::Arr(self.mlps.iter().map(|m| m.to_json()).collect())),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(SavedModel {
            vocab: v.get("vocab")?.as_usize()?,
            dim: v.get("dim")?.as_usize()?,
            heads: v.get("heads")?.as_usize()?,
            layers: v.get("layers")?.as_usize()?,
            ffn_dim: v.get("ffn_dim")?.as_usize()?,
            max_len: v.get("max_len")?.as_usize()?,
            sample_k: u32::try_from(v.get("sample_k")?.as_u64()?)
                .map_err(|_| JsonError("sample_k overflows u32".into()))?,
            sample_max_paths: v.get("sample_max_paths")?.as_usize()?,
            sample_max_len: v.get("sample_max_len")?.as_usize()?,
            sample_seed: v.get("sample_seed")?.as_u64()?,
            circuitformer: ModelState::from_json(v.get("circuitformer")?)?,
            path_scaler: LabelScaler::from_json(v.get("path_scaler")?)?,
            design_scaler: LabelScaler::from_json(v.get("design_scaler")?)?,
            corr_scaler: LabelScaler::from_json(v.get("corr_scaler")?)?,
            mlps: v
                .get("mlps")?
                .as_arr()?
                .iter()
                .map(ModelState::from_json)
                .collect::<Result<Vec<_>, _>>()?,
        })
    }
}

/// Renders `model` into the canonical serialized JSON string — the exact
/// bytes [`save_model`] writes and [`model_weight_hash`] hashes.
fn model_json(model: &SnsModel) -> String {
    let cfg = model.circuitformer().config().clone();
    let sample = model.sample_config();
    let saved = SavedModel {
        vocab: cfg.vocab,
        dim: cfg.dim,
        heads: cfg.heads,
        layers: cfg.layers,
        ffn_dim: cfg.ffn_dim,
        max_len: cfg.max_len,
        sample_k: sample.k,
        sample_max_paths: sample.max_paths,
        sample_max_len: sample.max_len,
        sample_seed: sample.seed,
        circuitformer: model.circuitformer.save(),
        path_scaler: model.path_scaler.clone(),
        design_scaler: model.design_scaler.clone(),
        corr_scaler: model.corr_scaler.clone(),
        mlps: model.mlps.iter().map(|m| save_params(|f| m.visit(f))).collect(),
    };
    saved.to_json().print()
}

/// Rebuilds a runnable [`SnsModel`] from its parsed serialized form.
/// A header the Circuitformer cannot be built or run with is an `Err`,
/// never a panic at construction or on the first request.
fn model_from_json(json: &str) -> Result<SnsModel, String> {
    let parsed = sns_rt::json::parse(json).map_err(|e| e.to_string())?;
    let saved = SavedModel::from_json(&parsed).map_err(|e| e.to_string())?;
    let vocab = Vocab::new();
    if saved.vocab != vocab.len() {
        return Err(format!("vocab {} != the {}-token vocabulary", saved.vocab, vocab.len()));
    }
    if saved.heads == 0 || saved.dim == 0 || saved.dim % saved.heads != 0 {
        return Err(format!(
            "dim {} is not a positive multiple of heads {}",
            saved.dim, saved.heads
        ));
    }
    if saved.max_len < 2 {
        return Err(format!("max_len {} leaves no room for a path token", saved.max_len));
    }
    if saved.sample_k == 0 {
        return Err("sample_k 0: the sampler follows ⌈d / k⌉ successors, k ≥ 1".into());
    }
    let cfg = CircuitformerConfig {
        vocab: saved.vocab,
        dim: saved.dim,
        heads: saved.heads,
        layers: saved.layers,
        ffn_dim: saved.ffn_dim,
        max_len: saved.max_len,
    };
    let mut rng = StdRng::seed_from_u64(0);
    let mut circuitformer = Circuitformer::new(cfg, &mut rng);
    circuitformer.load(&saved.circuitformer)?;
    if saved.mlps.len() != 3 {
        return Err(format!("expected 3 MLP states, found {}", saved.mlps.len()));
    }
    let mut mlps = [
        AggMlp::new(5 + vocab.len(), 0),
        AggMlp::new(5 + vocab.len(), 0),
        AggMlp::new(5 + vocab.len(), 0),
    ];
    for (m, state) in mlps.iter_mut().zip(&saved.mlps) {
        load_params(state, |f| m.visit_mut(f))?;
    }
    let sample = SampleConfig {
        k: saved.sample_k,
        max_paths: saved.sample_max_paths,
        max_len: saved.sample_max_len,
        seed: saved.sample_seed,
    };
    Ok(SnsModel {
        circuitformer,
        path_scaler: saved.path_scaler,
        design_scaler: saved.design_scaler,
        corr_scaler: saved.corr_scaler,
        mlps,
        sample,
        vocab,
        cache: PathPredictionCache::new(),
    })
}

/// Serializes a trained model to JSON at `path` (atomically: temp file +
/// rename, so a concurrent reader sees old or new bytes, never a mix).
///
/// # Errors
///
/// Returns an I/O or serialization error message.
pub fn save_model(model: &SnsModel, path: impl AsRef<Path>) -> Result<(), String> {
    let json = model_json(model);
    sns_rt::fsx::write_atomic(path.as_ref(), json.as_bytes()).map_err(|e| e.to_string())
}

/// Loads a model serialized by [`save_model`].
///
/// # Errors
///
/// Returns an I/O, parse, or shape-mismatch error message.
pub fn load_model(path: impl AsRef<Path>) -> Result<SnsModel, String> {
    let json = fs::read_to_string(path).map_err(|e| e.to_string())?;
    model_from_json(&json)
}

/// FNV-128 hash of a model's weights, as 32 lowercase hex digits.
///
/// Hashes the exact serialized bytes [`save_model`] writes, so the hash
/// of an in-memory model equals the hash of its checkpoint file — the
/// invariant the zoo's integrity check and sns-serve's cache keying rely
/// on.
pub fn model_weight_hash(model: &SnsModel) -> String {
    hash_hex(model_json(model).as_bytes())
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
    let json = model_json(model);
    let entry = ZooEntry {
        id: meta.id.clone(),
        file: format!("{}.json", meta.id),
        weight_hash: hash_hex(json.as_bytes()),
        tech_nm: meta.tech.nanometres(),
        train_steps: meta.train_steps,
        labeled_designs: meta.labeled_designs,
        seed: meta.seed,
    };
    let weights_path = dir.join(&entry.file);
    sns_rt::fsx::write_atomic(&weights_path, json.as_bytes())
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
    let json = match fs::read_to_string(&weights_path) {
        Ok(j) => j,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(ZooError::MissingWeights(format!("{}", weights_path.display())));
        }
        Err(e) => return Err(ZooError::Io(format!("{}: {e}", weights_path.display()))),
    };
    let actual = hash_hex(json.as_bytes());
    if actual != entry.weight_hash {
        return Err(ZooError::BadWeights(format!(
            "{}: hash {actual} != manifest {}",
            weights_path.display(),
            entry.weight_hash
        )));
    }
    let model = model_from_json(&json)
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

        let dir = std::env::temp_dir().join("sns_model_test.json");
        save_model(&model, &dir).unwrap();
        let loaded = load_model(&dir).unwrap();
        let after = loaded.predict_verilog(&designs[0].verilog, &designs[0].top).unwrap();
        assert_eq!(before.timing_ps, after.timing_ps);
        assert_eq!(before.area_um2, after.area_um2);
        assert_eq!(before.power_mw, after.power_mw);
        let _ = std::fs::remove_file(dir);
    }

    #[test]
    fn load_rejects_garbage() {
        let dir = std::env::temp_dir().join("sns_model_garbage.json");
        std::fs::write(&dir, "{not json").unwrap();
        assert!(load_model(&dir).is_err());
        let _ = std::fs::remove_file(dir);
    }

    fn tiny_model() -> SnsModel {
        let designs = vec![vector::simd_alu(2, 8), nonlinear::piecewise(4, 8)];
        let mut cfg = SnsTrainConfig::fast();
        cfg.circuitformer = CircuitformerConfig {
            dim: 32,
            ffn_dim: 64,
            max_len: 64,
            ..CircuitformerConfig::fast()
        };
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
        let (latest, el) = load_from_zoo(&dir, None).unwrap();
        assert_eq!(el.id, "m2");
        assert_eq!(latest.sample_config().seed, 3);

        // Unknown id.
        assert!(matches!(load_from_zoo(&dir, Some("nope")), Err(ZooError::UnknownModel(_))));

        // Missing weights: delete m0's file.
        std::fs::remove_file(dir.join("m0.json")).unwrap();
        assert!(matches!(load_from_zoo(&dir, Some("m0")), Err(ZooError::MissingWeights(_))));

        // Corrupted weights: truncate m1's file → hash mismatch.
        std::fs::write(dir.join("m1.json"), "{}").unwrap();
        assert!(matches!(load_from_zoo(&dir, Some("m1")), Err(ZooError::BadWeights(_))));

        // Corrupted manifest.
        std::fs::write(dir.join(ZOO_MANIFEST), "{broken").unwrap();
        assert!(matches!(load_from_zoo(&dir, None), Err(ZooError::Manifest(_))));

        // Empty manifest.
        std::fs::write(dir.join(ZOO_MANIFEST), "{\"models\": []}").unwrap();
        assert!(matches!(load_from_zoo(&dir, None), Err(ZooError::Empty)));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zoo_rejects_hash_consistent_weights_with_a_bad_header() {
        let dir = zoo_dir("header");
        let meta = ZooCheckpointMeta {
            id: "m0".into(),
            tech: TechNode::N15,
            train_steps: 0,
            labeled_designs: 0,
            seed: 7,
        };
        save_to_zoo(&tiny_model(), &dir, &meta).unwrap();
        assert!(load_from_zoo(&dir, Some("m0")).is_ok(), "the unedited checkpoint loads");
        let weights = std::fs::read_to_string(dir.join("m0.json")).unwrap();
        let manifest = std::fs::read_to_string(dir.join(ZOO_MANIFEST)).unwrap();
        let good_hash = hash_hex(weights.as_bytes());
        // heads 0; dim not a multiple of heads (2); a vocab other than
        // the 79-token one; max_len too short to hold CLS plus a token;
        // a sampling density of 0 (`⌈d / 0⌉` at the first prediction).
        let bad = [("heads", 0), ("dim", 33), ("vocab", 80), ("max_len", 1), ("sample_k", 0)];
        for (field, value) in bad {
            let Json::Obj(mut fields) = sns_rt::json::parse(&weights).unwrap() else {
                panic!("weights file is not an object");
            };
            fields.iter_mut().find(|(k, _)| k == field).unwrap().1 = Json::Int(value);
            let edited = Json::Obj(fields).print();
            // Rewrite the manifest hash so the integrity check passes and
            // only the header check stands between the file and a panic.
            std::fs::write(dir.join("m0.json"), &edited).unwrap();
            let rehashed = manifest.replace(&good_hash, &hash_hex(edited.as_bytes()));
            std::fs::write(dir.join(ZOO_MANIFEST), rehashed).unwrap();
            assert!(
                matches!(load_from_zoo(&dir, Some("m0")), Err(ZooError::BadWeights(_))),
                "{field} = {value} must be rejected as bad weights"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zoo_on_missing_directory_is_a_structured_error() {
        let dir = zoo_dir("absent");
        assert!(matches!(load_from_zoo(&dir, None), Err(ZooError::Manifest(_))));
    }
}
