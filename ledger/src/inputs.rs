//! Workload inputs: `.o2` source text generated from the workload seed,
//! each with the ground truth the checker compares verdicts against.
//!
//! The program under test only ever receives the printed source.

use crate::check::Truth;
use o2_ir::{printer, Program};
use o2_workloads::{
    all_c_models, all_models, all_presets, extended_c_models, extended_models, mega_presets,
    RealBugModel,
};

/// SplitMix64: the benchmark's own deterministic generator, so every
/// input and schedule is a pure function of the `--seed` argument.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// A per-program generator seed derived from the workload seed and the
/// program's name, so adding a program never re-seeds the others.
pub fn derive_seed(seed: u64, name: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in name.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    Rng::new(seed ^ h).next_u64()
}

/// One benchmark input: printed source plus its known answer.
#[derive(Clone, Debug)]
pub struct Input {
    pub name: String,
    pub source: String,
    pub truth: Truth,
}

fn preset_inputs(seed: u64, keep: impl Fn(&str) -> bool) -> Vec<Input> {
    all_presets()
        .into_iter()
        .filter(|p| keep(p.name))
        .map(|mut p| {
            p.spec.seed = derive_seed(seed, p.name);
            let w = p.generate();
            Input {
                name: p.name.to_string(),
                source: printer::print_program(&w.program),
                truth: Truth::planted(&w.truth.racy_fields),
            }
        })
        .collect()
}

fn mega_inputs(seed: u64, keep: impl Fn(&str) -> bool) -> Vec<Input> {
    mega_presets()
        .into_iter()
        .filter(|p| keep(p.name))
        .map(|mut p| {
            p.seed = derive_seed(seed, p.name);
            let w = p.generate();
            Input {
                name: p.name.to_string(),
                source: printer::print_program(&w.program),
                truth: Truth::planted(&w.truth.racy_fields),
            }
        })
        .collect()
}

fn model_input(m: RealBugModel, suffix: &str) -> Input {
    Input {
        name: format!("{}{suffix}", m.name),
        source: printer::print_program(&m.program),
        truth: Truth::Count(m.expected_races),
    }
}

/// The 23 Table 10 real-bug models: Java-style and C-style (the C
/// models are printed to `.o2`, so every input takes the same frontend).
fn realbug_inputs() -> Vec<Input> {
    let java = all_models().into_iter().chain(extended_models());
    let c = all_c_models().into_iter().chain(extended_c_models());
    java.map(|m| model_input(m, ""))
        .chain(c.map(|m| model_input(m, "-c")))
        .collect()
}

/// `cold-paper`: the 30 Table 5–9 presets plus the 23 real-bug models.
pub fn cold_paper(seed: u64) -> Vec<Input> {
    let mut v = preset_inputs(seed, |_| true);
    v.extend(realbug_inputs());
    v
}

/// `mega-origins`: mega-smoke, mega-grid and mega-skew.
pub fn mega_origins(seed: u64) -> Vec<Input> {
    mega_inputs(seed, |_| true)
}

/// `serve-edits` bases: the mid-size presets avrora, lusearch, zookeeper,
/// k9mail, chrome and hbase, mega-smoke, and the Java-style real-bug
/// models. The serve schedule ranks them.
pub fn serve_bases(seed: u64) -> Vec<Input> {
    const PRESETS: [&str; 6] = [
        "avrora",
        "lusearch",
        "zookeeper",
        "k9mail",
        "chrome",
        "hbase",
    ];
    let mut v = realbug_inputs()
        .into_iter()
        .filter(|i| !i.name.ends_with("-c"))
        .collect::<Vec<_>>();
    v.extend(mega_inputs(seed, |n| n == "mega-smoke"));
    v.extend(preset_inputs(seed, |n| PRESETS.contains(&n)));
    v
}

/// A seeded single-function edit, in place: duplicates one field or
/// static access, chosen uniformly over all of them. Returns `false`
/// only for a program with no memory access.
pub fn edit_in_place(program: &mut Program, rng: &mut Rng) -> bool {
    let sites: Vec<(usize, usize)> = program
        .methods
        .iter()
        .enumerate()
        .flat_map(|(m, method)| {
            method
                .body
                .iter()
                .enumerate()
                .filter(|(_, i)| {
                    i.stmt.field_access().is_some() || i.stmt.static_access().is_some()
                })
                .map(move |(k, _)| (m, k))
        })
        .collect();
    if sites.is_empty() {
        return false;
    }
    let (m, k) = sites[rng.below(sites.len())];
    let dup = program.methods[m].body[k].clone();
    program.methods[m].body.insert(k + 1, dup);
    true
}
