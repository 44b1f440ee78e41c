//! Dataset generation (§4.1–4.2): the Hardware Design Dataset (Table 4)
//! and the Circuit Path Dataset (Table 5).

use std::collections::HashSet;

use sns_rt::rng::{SliceRandom, StdRng};

use sns_designs::Design;
use sns_genmodel::{MarkovChain, PathValidator, SeqGan, SeqGanConfig};
use sns_graphir::{GraphIr, Vocab};
use sns_netlist::parse_and_elaborate;
use sns_sampler::{PathSampler, SampleConfig};
use sns_vsynth::{path_physical, CellLibrary, SynthOptions, SynthReport, UnitCache, VirtualSynthesizer};

/// One Table 4 row: a design plus its ground-truth synthesis labels.
#[derive(Debug, Clone)]
pub struct LabeledDesign {
    /// The design source.
    pub design: Design,
    /// The virtual synthesizer's report (ground truth).
    pub report: SynthReport,
}

/// A `(train, test)` pair of entry-index sets produced by
/// [`HardwareDesignDataset::split`].
pub type SplitIndices = (Vec<usize>, Vec<usize>);

/// The Hardware Design Dataset.
#[derive(Debug, Clone, Default)]
pub struct HardwareDesignDataset {
    /// Labeled designs in catalog order.
    pub entries: Vec<LabeledDesign>,
}

impl HardwareDesignDataset {
    /// Labels every design by running the virtual synthesizer — the
    /// analogue of the paper's Synopsys DC + FreePDK-15 runs. Work is
    /// spread across threads (each design is independent).
    ///
    /// # Panics
    ///
    /// Panics if a design fails to parse/elaborate — catalog designs are
    /// validated by construction, so this indicates a bug.
    pub fn generate(designs: &[Design], options: &SynthOptions) -> Self {
        let threads = sns_rt::pool::default_threads();
        let synth = VirtualSynthesizer::new(options.clone());
        let entries = sns_rt::pool::par_map(designs, threads, |d| {
            let nl = parse_and_elaborate(&d.verilog, &d.top)
                .unwrap_or_else(|e| panic!("design `{}`: {e}", d.name));
            LabeledDesign { design: d.clone(), report: synth.synthesize(&nl) }
        });
        HardwareDesignDataset { entries }
    }

    /// Splits into (train, test) index sets with approximately
    /// `train_frac` of the *base designs* in the training side. Parameter
    /// variants of one base never straddle the split (§4.1).
    pub fn split(&self, train_frac: f64, seed: u64) -> (Vec<usize>, Vec<usize>) {
        let mut bases: Vec<String> = Vec::new();
        for e in &self.entries {
            if !bases.contains(&e.design.base) {
                bases.push(e.design.base.clone());
            }
        }
        let mut rng = StdRng::seed_from_u64(seed);
        bases.shuffle(&mut rng);
        let n_train = ((bases.len() as f64) * train_frac).round().max(1.0) as usize;
        let train_bases: HashSet<&String> = bases.iter().take(n_train.min(bases.len())).collect();
        let mut train = Vec::new();
        let mut test = Vec::new();
        for (i, e) in self.entries.iter().enumerate() {
            if train_bases.contains(&e.design.base) {
                train.push(i);
            } else {
                test.push(i);
            }
        }
        (train, test)
    }

    /// The two folds for 2-fold cross validation (§5.2): a 50/50 split by
    /// base design.
    pub fn two_fold(&self, seed: u64) -> (SplitIndices, SplitIndices) {
        let (a, b) = self.split(0.5, seed);
        ((a.clone(), b.clone()), (b, a))
    }

    /// Borrowed entries for an index set.
    pub fn select(&self, idx: &[usize]) -> Vec<&LabeledDesign> {
        idx.iter().map(|&i| &self.entries[i]).collect()
    }
}

/// Augmentation targets for the Circuit Path Dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct AugmentConfig {
    /// Paths to generate with the Markov chain (§4.2.1; paper ≈ 1000).
    pub markov_count: usize,
    /// Paths to generate with SeqGAN (§4.2.2; paper ≈ 3000).
    pub seqgan_count: usize,
    /// SeqGAN training configuration.
    pub seqgan: SeqGanConfig,
    /// Laplace smoothing for the Markov chain.
    pub markov_alpha: f64,
    /// Generation seed.
    pub seed: u64,
}

impl AugmentConfig {
    /// The paper's §4.2 scale: ~1000 Markov + ~3000 SeqGAN paths.
    pub fn paper() -> Self {
        AugmentConfig {
            markov_count: 1000,
            seqgan_count: 3000,
            seqgan: SeqGanConfig::paper(),
            markov_alpha: 0.05,
            seed: 2022,
        }
    }

    /// Reduced counts for CI.
    pub fn fast() -> Self {
        AugmentConfig {
            markov_count: 200,
            seqgan_count: 400,
            seqgan: SeqGanConfig::fast(),
            ..AugmentConfig::paper()
        }
    }

    /// No augmentation (for the ablation study).
    pub fn none() -> Self {
        AugmentConfig { markov_count: 0, seqgan_count: 0, ..AugmentConfig::fast() }
    }
}

/// Labels one tokenized path with the virtual synthesizer's path model:
/// raw `[timing_ps, area_um2, power_mw]` at the library's native node.
/// The single labeling routine shared by batch dataset construction and
/// the `sns-train` daemon's online path labeling, so both produce
/// bit-identical labels for the same token sequence.
pub fn label_path_tokens(
    ids: &[usize],
    vocab: &Vocab,
    library: &CellLibrary,
    cache: &mut UnitCache,
) -> [f64; 3] {
    let tokens: Vec<(sns_graphir::VocabType, u32)> = ids
        .iter()
        .map(|&t| {
            let v = vocab.vertex(t);
            (v.vtype, v.width)
        })
        .collect();
    let phys = path_physical(&tokens, library, cache);
    [phys.timing_ps, phys.area_um2, phys.power_mw]
}

/// The Circuit Path Dataset (Table 5): token sequences with raw
/// `[timing_ps, area_um2, power_mw]` labels.
#[derive(Debug, Clone, Default)]
pub struct CircuitPathDataset {
    /// `(token ids, raw labels)` examples.
    pub examples: Vec<(Vec<usize>, [f64; 3])>,
    /// How many came from direct sampling of real designs.
    pub direct_count: usize,
    /// How many came from the Markov chain.
    pub markov_count: usize,
    /// How many came from SeqGAN.
    pub seqgan_count: usize,
}

impl CircuitPathDataset {
    /// Builds the dataset: samples complete circuit paths from `designs`
    /// (Algorithm 1), labels them with the virtual synthesizer's path
    /// model, then augments with Markov-chain and SeqGAN paths.
    pub fn build(
        designs: &[&Design],
        sample: &SampleConfig,
        augment: &AugmentConfig,
        library: &CellLibrary,
    ) -> Self {
        let vocab = Vocab::new();
        let sampler = PathSampler::new(sample.clone());
        let mut direct: Vec<Vec<usize>> = Vec::new();
        let mut seen: HashSet<Vec<usize>> = HashSet::new();
        for d in designs {
            let nl = parse_and_elaborate(&d.verilog, &d.top)
                .unwrap_or_else(|e| panic!("design `{}`: {e}", d.name));
            let g = GraphIr::from_netlist(&nl);
            for p in sampler.sample(&g) {
                let ids = p.token_ids(&g, &vocab);
                if seen.insert(ids.clone()) {
                    direct.push(ids);
                }
            }
        }

        let validator = PathValidator::new(&vocab);
        let mut rng = StdRng::seed_from_u64(augment.seed);
        let mut markov_paths = Vec::new();
        if augment.markov_count > 0 && !direct.is_empty() {
            let mc = MarkovChain::fit(vocab.len(), &direct, augment.markov_alpha);
            let raw = mc.generate_unique(&mut rng, augment.markov_count * 6, sample.max_len, &seen);
            markov_paths = validator.filter(raw);
            markov_paths.truncate(augment.markov_count);
            for p in &markov_paths {
                seen.insert(p.clone());
            }
        }
        let mut seqgan_paths = Vec::new();
        if augment.seqgan_count > 0 && !direct.is_empty() {
            let mut gan = SeqGan::new(vocab.len(), augment.seqgan.clone());
            gan.train(&direct);
            let raw = gan.generate_unique(&mut rng, augment.seqgan_count * 8, &seen);
            seqgan_paths = validator.filter(raw);
            seqgan_paths.truncate(augment.seqgan_count);
        }

        // Label every path with the virtual synthesizer's path model.
        let mut cache = UnitCache::new();
        let mut examples = Vec::new();
        let direct_count = direct.len();
        let markov_count = markov_paths.len();
        let seqgan_count = seqgan_paths.len();
        for ids in direct.into_iter().chain(markov_paths).chain(seqgan_paths) {
            let label = label_path_tokens(&ids, &vocab, library, &mut cache);
            examples.push((ids, label));
        }
        CircuitPathDataset { examples, direct_count, markov_count, seqgan_count }
    }

    /// Total number of labeled paths.
    pub fn len(&self) -> usize {
        self.examples.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.examples.is_empty()
    }

    /// Splits off a validation fraction (deterministic shuffle).
    pub fn train_val_split(&self, val_frac: f64, seed: u64) -> (Vec<usize>, Vec<usize>) {
        let mut order: Vec<usize> = (0..self.examples.len()).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        order.shuffle(&mut rng);
        let n_val = ((self.examples.len() as f64) * val_frac) as usize;
        let val = order[..n_val].to_vec();
        let train = order[n_val..].to_vec();
        (train, val)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sns_designs::{catalog, nonlinear, vector};

    fn tiny_designs() -> Vec<Design> {
        vec![vector::simd_alu(2, 8), nonlinear::piecewise(4, 8)]
    }

    #[test]
    fn labeling_produces_positive_reports() {
        let ds = tiny_designs();
        let set = HardwareDesignDataset::generate(&ds, &SynthOptions::default());
        assert_eq!(set.entries.len(), 2);
        for e in &set.entries {
            assert!(e.report.area_um2 > 0.0, "{}", e.design.name);
            assert!(e.report.timing_ps > 0.0);
            assert!(e.report.power_mw > 0.0);
        }
    }

    #[test]
    fn split_keeps_bases_together() {
        let ds = catalog();
        let set = HardwareDesignDataset {
            entries: ds
                .into_iter()
                .map(|design| LabeledDesign {
                    design,
                    report: SynthReport {
                        area_um2: 1.0,
                        timing_ps: 1.0,
                        power_mw: 1.0,
                        dynamic_mw: 0.5,
                        leakage_mw: 0.5,
                        gate_count: 1,
                        transistor_count: 4,
                        cycles_broken: 0,
                        runtime: std::time::Duration::ZERO,
                    },
                })
                .collect(),
        };
        let (train, test) = set.split(0.5, 3);
        assert!(!train.is_empty() && !test.is_empty());
        let train_bases: HashSet<_> =
            train.iter().map(|&i| set.entries[i].design.base.clone()).collect();
        for &i in &test {
            assert!(
                !train_bases.contains(&set.entries[i].design.base),
                "base `{}` straddles the split",
                set.entries[i].design.base
            );
        }
        // Two-fold covers everything exactly once per fold.
        let ((a1, b1), (a2, b2)) = set.two_fold(3);
        assert_eq!(a1.len() + b1.len(), set.entries.len());
        assert_eq!(a1, b2);
        assert_eq!(b1, a2);
    }

    #[test]
    fn path_dataset_builds_and_labels() {
        let ds = tiny_designs();
        let refs: Vec<&Design> = ds.iter().collect();
        let mut aug = AugmentConfig::fast();
        aug.markov_count = 20;
        aug.seqgan_count = 0; // keep the test fast
        let set = CircuitPathDataset::build(
            &refs,
            &SampleConfig::paper_default(),
            &aug,
            &CellLibrary::freepdk15(),
        );
        assert!(set.direct_count > 0);
        assert!(!set.is_empty());
        for (ids, label) in &set.examples {
            assert!(ids.len() >= 2);
            assert!(label[0] > 0.0, "timing label must be positive");
        }
        let (tr, va) = set.train_val_split(0.25, 1);
        assert_eq!(tr.len() + va.len(), set.len());
    }

    #[test]
    fn augmentation_adds_unique_paths() {
        let ds = tiny_designs();
        let refs: Vec<&Design> = ds.iter().collect();
        let mut aug = AugmentConfig::fast();
        aug.markov_count = 30;
        aug.seqgan_count = 0;
        let with = CircuitPathDataset::build(
            &refs,
            &SampleConfig::paper_default(),
            &aug,
            &CellLibrary::freepdk15(),
        );
        let without = CircuitPathDataset::build(
            &refs,
            &SampleConfig::paper_default(),
            &AugmentConfig::none(),
            &CellLibrary::freepdk15(),
        );
        assert!(with.len() > without.len());
        assert_eq!(without.markov_count, 0);
        let all: HashSet<_> = with.examples.iter().map(|(ids, _)| ids.clone()).collect();
        assert_eq!(all.len(), with.len(), "duplicate paths in dataset");
    }
}
