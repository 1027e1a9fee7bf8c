//! Workload generators and their answer oracles.
//!
//! Every generator is a pure function of `(sizes, seed)`: it produces TSV
//! text (written to disk for the one-shot workloads, wrapped in `load`
//! requests for the server ones) and, from the same planted structure, the
//! row count and checksum the answer must have ([`crate::check`]). The
//! expected answer comes from a closed form or a generator-side key lookup —
//! never from the engine, which sees only the files and requests.
//!
//! The seed changes labels and order, not shape: values are pushed through
//! seeded injective maps and rows are shuffled, so every seed has the same
//! cardinalities (the star's random fact keys move its answer by ~1 %).

use crate::check::{cell_hash, column_seed, int_cell_hash, Expected};
use crate::json::quote;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Ex3Dp,
    StarQuery,
    TriWcoj,
    ChainSpill,
    ServeWarm,
    ServeChurn,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::Ex3Dp,
        Workload::StarQuery,
        Workload::TriWcoj,
        Workload::ChainSpill,
        Workload::ServeWarm,
        Workload::ServeChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Ex3Dp => "ex3_dp",
            Workload::StarQuery => "star_query",
            Workload::TriWcoj => "tri_wcoj",
            Workload::ChainSpill => "chain_spill",
            Workload::ServeWarm => "serve_warm",
            Workload::ServeChurn => "serve_churn",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_serve(self) -> bool {
        matches!(self, Workload::ServeWarm | Workload::ServeChurn)
    }

    /// Why the workload is in the set (repeated in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Ex3Dp => "paper's Example 3 via run --optimizer dp: exact-oracle planning is ~97% of time and all of RSS, execution ~0; only a planner change shows here",
            Workload::StarQuery => "7-atom star CQ over string dimensions: TSV load/intern and answer materialize/write dominate, planner bypassed (estimate oracle)",
            Workload::TriWcoj => "hub triangle with --executor auto routes to the worst-case-optimal join on bounds alone; bypasses program and core",
            Workload::ChainSpill => "skewed chain under --mem-budget: the only path through memory certificate, spill plan and Grace-hash join; 490k rows also stress write",
            Workload::ServeWarm => "100% warm run of a compiled hub-and-spoke reducer on a resident server: protocol, admission, execute with index-cache hits; load/plan cost zero",
            Workload::ServeChurn => "70% warm run, 25% 8-atom cq query with minimization, 5% load+compile+cold run into fresh catalogs: cold sessions against the same server",
        }
    }
}

/// Every size the generators take. `full` is what `BENCHMARK.json` freezes;
/// `smoke` is for the CI-speed pass.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Example 3 scale `m` (relations have `2m³+1`, `2m²+1`, `2m+1`, `2m²+1` rows).
    pub ex3_m: u64,
    pub star_fact_rows: usize,
    /// Key-domain size of each of the six dimensions.
    pub star_dims: [usize; 6],
    /// Hub triangle scale: each relation has `2m+1` rows, the answer `3m+1`.
    pub tri_m: u64,
    /// Rows per chain relation (a multiple of 4); the answer has `n²/4` rows.
    pub chain_n: u64,
    /// `--mem-budget` for the chain: half the largest certified build side
    /// at the commit that froze it, so at least one join must spill.
    pub chain_budget: u64,
    pub hub_rows: usize,
    pub hub_domain: usize,
    pub spokes: usize,
    pub spoke_rows: usize,
    /// Key-domain size of the six small relations under the churn `cq`.
    pub small_keys: usize,
    /// The churn workload's fresh catalogs: a small hub and three spokes.
    pub fresh_hub_rows: usize,
    pub fresh_domain: usize,
    pub fresh_spoke_rows: usize,
}

impl Sizes {
    pub fn of(smoke: bool) -> Sizes {
        if smoke {
            Sizes::smoke()
        } else {
            Sizes::full()
        }
    }

    pub fn full() -> Sizes {
        Sizes {
            ex3_m: 8,
            star_fact_rows: 100_000,
            star_dims: [2000, 1000, 500, 200, 50, 20],
            tri_m: 40_000,
            chain_n: 1400,
            chain_budget: 36_192,
            hub_rows: 100_000,
            hub_domain: 2000,
            spokes: 9,
            spoke_rows: 4000,
            small_keys: 300,
            fresh_hub_rows: 5000,
            fresh_domain: 200,
            fresh_spoke_rows: 400,
        }
    }

    pub fn smoke() -> Sizes {
        Sizes {
            ex3_m: 5,
            star_fact_rows: 2000,
            star_dims: [200, 100, 50, 20, 10, 5],
            tri_m: 500,
            chain_n: 64,
            chain_budget: 1024,
            hub_rows: 2000,
            hub_domain: 100,
            spokes: 9,
            spoke_rows: 200,
            small_keys: 50,
            fresh_hub_rows: 200,
            fresh_domain: 20,
            fresh_spoke_rows: 40,
        }
    }

    /// The sizes as JSON, for the result file.
    pub fn to_json(&self, w: Workload) -> String {
        match w {
            Workload::Ex3Dp => format!("{{\"m\":{}}}", self.ex3_m),
            Workload::StarQuery => format!(
                "{{\"fact_rows\":{},\"dims\":{:?}}}",
                self.star_fact_rows, self.star_dims
            ),
            Workload::TriWcoj => format!("{{\"m\":{}}}", self.tri_m),
            Workload::ChainSpill => format!(
                "{{\"n\":{},\"mem_budget\":{}}}",
                self.chain_n, self.chain_budget
            ),
            Workload::ServeWarm => format!(
                "{{\"hub_rows\":{},\"hub_domain\":{},\"spokes\":{},\"spoke_rows\":{}}}",
                self.hub_rows, self.hub_domain, self.spokes, self.spoke_rows
            ),
            Workload::ServeChurn => format!(
                "{{\"hub_rows\":{},\"hub_domain\":{},\"spokes\":{},\"spoke_rows\":{},\"small_keys\":{},\"fresh_hub_rows\":{}}}",
                self.hub_rows, self.hub_domain, self.spokes, self.spoke_rows, self.small_keys, self.fresh_hub_rows
            ),
        }
    }
}

// ---------------------------------------------------------------------------
// Seeded randomness (splitmix64 — the harness depends on nothing but the
// engine, and the stream must not change under it).

pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// `0..n` in a seeded order.
    fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }

    /// A seeded injective relabelling `v ↦ base + v`. The base keeps every
    /// label of a domain of up to 100 000 values at six digits, so the seed
    /// changes the bytes of a file but not how many there are.
    fn affine(&mut self) -> Affine {
        Affine {
            base: 100_000 + self.below(800_000) as i64,
        }
    }
}

#[derive(Clone, Copy)]
struct Affine {
    base: i64,
}

impl Affine {
    fn of(self, v: u64) -> i64 {
        debug_assert!(v < 100_000, "labels must stay at six digits");
        self.base + v as i64
    }
}

/// One generated relation: a name (file stem / server relation name) and its
/// TSV text.
pub struct Table {
    pub name: String,
    pub tsv: String,
    pub rows: u64,
}

/// Emit `header` then `rows` rows in a seeded order, `row(i, out)` appending
/// row `i`'s tab-separated cells.
fn table(
    name: &str,
    header: &str,
    rows: usize,
    rng: &mut Rng,
    mut row: impl FnMut(usize, &mut String),
) -> Table {
    let mut tsv = String::with_capacity(16 * rows + 64);
    tsv.push_str(header);
    tsv.push('\n');
    for i in rng.permutation(rows) {
        row(i, &mut tsv);
        tsv.push('\n');
    }
    Table {
        name: name.to_string(),
        tsv,
        rows: rows as u64,
    }
}

// ---------------------------------------------------------------------------
// One-shot workloads.

/// What `mjoin_cli` is asked to do, before any file exists.
#[derive(Debug, Clone)]
pub enum OneShotPlan {
    /// `mjoin_cli run --optimizer O [--mem-budget B] files…`
    Run {
        files: Vec<PathBuf>,
        optimizer: &'static str,
        mem_budget: Option<u64>,
    },
    /// `mjoin_cli query --executor E "Q(..) :- …" files…`
    Query {
        files: Vec<PathBuf>,
        query: String,
        executor: &'static str,
    },
}

impl OneShotPlan {
    pub fn cli_args(&self) -> Vec<String> {
        let paths = |files: &[PathBuf]| -> Vec<String> {
            files
                .iter()
                .map(|p| p.to_string_lossy().into_owned())
                .collect()
        };
        match self {
            OneShotPlan::Run {
                files,
                optimizer,
                mem_budget,
            } => {
                let mut a = vec![
                    "run".to_string(),
                    "--optimizer".to_string(),
                    (*optimizer).to_string(),
                ];
                if let Some(b) = mem_budget {
                    a.push("--mem-budget".to_string());
                    a.push(b.to_string());
                }
                a.extend(paths(files));
                a
            }
            OneShotPlan::Query {
                files,
                query,
                executor,
            } => {
                let mut a = vec![
                    "query".to_string(),
                    "--executor".to_string(),
                    (*executor).to_string(),
                    query.clone(),
                ];
                a.extend(paths(files));
                a
            }
        }
    }
}

const STAR_QUERY: &str = "Q(id, n1, n2, n3, n4, n5, n6) :- fact(id, k1, k2, k3, k4, k5, k6), \
     d1(k1, n1), d2(k2, n2), d3(k3, n3), d4(k4, n4), d5(k5, n5), d6(k6, n6)";
const TRI_QUERY: &str = "Q(x, y, z) :- r(x, y), s(y, z), t(z, x)";

/// The command line for a one-shot workload whose files live in `dir`.
pub fn one_shot_plan(w: Workload, sizes: &Sizes, dir: &Path) -> OneShotPlan {
    let files = |names: &[&str]| -> Vec<PathBuf> {
        names.iter().map(|n| dir.join(format!("{n}.tsv"))).collect()
    };
    match w {
        Workload::Ex3Dp => OneShotPlan::Run {
            files: files(&["ABC", "CDE", "EFG", "GHA"]),
            optimizer: "dp",
            mem_budget: None,
        },
        Workload::StarQuery => OneShotPlan::Query {
            files: files(&["fact", "d1", "d2", "d3", "d4", "d5", "d6"]),
            query: STAR_QUERY.to_string(),
            executor: "program",
        },
        Workload::TriWcoj => OneShotPlan::Query {
            files: files(&["r", "s", "t"]),
            query: TRI_QUERY.to_string(),
            executor: "auto",
        },
        Workload::ChainSpill => OneShotPlan::Run {
            files: files(&["AB", "BC", "CD"]),
            optimizer: "greedy",
            mem_budget: Some(sizes.chain_budget),
        },
        Workload::ServeWarm | Workload::ServeChurn => {
            unreachable!("{} is a server workload", w.name())
        }
    }
}

/// Generate a one-shot workload's tables and the answer they must produce.
pub fn one_shot_tables(w: Workload, sizes: &Sizes, seed: u64) -> (Vec<Table>, Expected) {
    match w {
        Workload::Ex3Dp => example3(sizes.ex3_m, seed),
        Workload::StarQuery => star(sizes, seed),
        Workload::TriWcoj => hub_triangle(sizes.tri_m, seed),
        Workload::ChainSpill => skewed_chain(sizes.chain_n, seed),
        Workload::ServeWarm | Workload::ServeChurn => {
            unreachable!("{} is a server workload", w.name())
        }
    }
}

/// Write a one-shot workload's TSVs under `dir`; returns the expected answer
/// and the total bytes written.
pub fn write_one_shot(
    w: Workload,
    sizes: &Sizes,
    seed: u64,
    dir: &Path,
) -> std::io::Result<(Expected, u64)> {
    std::fs::create_dir_all(dir)?;
    let (tables, expected) = one_shot_tables(w, sizes, seed);
    let mut bytes = 0u64;
    for t in &tables {
        std::fs::write(dir.join(format!("{}.tsv", t.name)), &t.tsv)?;
        bytes += t.tsv.len() as u64;
    }
    Ok((expected, bytes))
}

/// The paper's Example 3 at scale `m` over `{ABC, CDE, EFG, GHA}`: corner
/// attributes carry a spine value 0 and mass values {1, 2}, private ones
/// carry multiplicity, and `GHA` flips the mass so the cycle never closes —
/// the join is the single all-zero tuple. The seed relabels the private
/// multiplicities (they join with nothing) and shuffles rows.
fn example3(m: u64, seed: u64) -> (Vec<Table>, Expected) {
    let mut rng = Rng::new(seed, 1);
    let q = [m * m * m, m * m, m, m * m];
    let mut tables = Vec::new();
    for (i, name) in ["ABC", "CDE", "EFG", "GHA"].iter().enumerate() {
        let header: Vec<String> = name.chars().map(String::from).collect();
        let off = 1000 + rng.below(8000) as u64;
        let qi = q[i] as usize;
        tables.push(table(
            name,
            &header.join("\t"),
            2 * qi + 1,
            &mut rng,
            |r, out| {
                if r == 0 {
                    out.push_str("0\t0\t0");
                    return;
                }
                let (alpha, j) = (1 + (r - 1) / qi, (r - 1) % qi);
                let last = if i == 3 { 3 - alpha } else { alpha };
                let _ = write!(out, "{alpha}\t{}\t{last}", off + j as u64);
            },
        ));
    }
    let mut expected = Expected::default();
    let sum = "ABCDEFGH".chars().fold(0u64, |s, c| {
        s.wrapping_add(cell_hash(column_seed(&c.to_string()), b"0"))
    });
    expected.add_row(sum);
    (tables, expected)
}

/// A star: `fact(id, k1..k6)` with seeded keys into six dimensions
/// `dN(k, name)` whose names are strings. `d1` holds only every tenth key,
/// so a tenth of the facts survive; the answer carries the six names.
fn star(sizes: &Sizes, seed: u64) -> (Vec<Table>, Expected) {
    let mut rng = Rng::new(seed, 2);
    let n = sizes.star_fact_rows;
    let tag = rng.below(0xffff);
    let key_maps: Vec<Affine> = (0..6).map(|_| rng.affine()).collect();
    let id_map = rng.affine();
    let phase = rng.below(10);
    let in_d1 = |k: usize| (k + phase).is_multiple_of(10);
    let name_of = |d: usize, k: usize| format!("d{}_{tag:04x}_{k:05}", d + 1);

    let keys: Vec<[usize; 6]> = (0..n)
        .map(|_| std::array::from_fn(|d| rng.below(sizes.star_dims[d])))
        .collect();
    let mut tables = vec![table(
        "fact",
        "id\tk1\tk2\tk3\tk4\tk5\tk6",
        n,
        &mut rng,
        |i, out| {
            let _ = write!(out, "{}", id_map.of(i as u64));
            for d in 0..6 {
                let _ = write!(out, "\t{}", key_maps[d].of(keys[i][d] as u64));
            }
        },
    )];
    for (d, key_map) in key_maps.iter().enumerate() {
        let present: Vec<usize> = (0..sizes.star_dims[d])
            .filter(|&k| d != 0 || in_d1(k))
            .collect();
        tables.push(table(
            &format!("d{}", d + 1),
            "k\tname",
            present.len(),
            &mut rng,
            |i, out| {
                let k = present[i];
                let _ = write!(out, "{}\t{}", key_map.of(k as u64), name_of(d, k));
            },
        ));
    }

    // Oracle: look each fact's keys up on the generator's side.
    let id_seed = column_seed("id");
    let name_hashes: Vec<Vec<u64>> = (0..6)
        .map(|d| {
            let s = column_seed(&format!("n{}", d + 1));
            (0..sizes.star_dims[d])
                .map(|k| cell_hash(s, name_of(d, k).as_bytes()))
                .collect()
        })
        .collect();
    let mut expected = Expected::default();
    let mut buf = String::new();
    for (i, ks) in keys.iter().enumerate() {
        if !in_d1(ks[0]) {
            continue;
        }
        let mut sum = int_cell_hash(id_seed, id_map.of(i as u64), &mut buf);
        for d in 0..6 {
            sum = sum.wrapping_add(name_hashes[d][ks[d]]);
        }
        expected.add_row(sum);
    }
    (tables, expected)
}

/// The hub triangle `r(x,y), s(y,z), t(z,x)`: each relation is a star centred
/// on 0 in both directions (`(0,v)` for `v ∈ 0..=m`, `(u,0)` for `u ∈ 1..=m`),
/// so every pairwise join is `Θ(m²)` while the answer — the tuples with at
/// most one non-zero coordinate — has `3m+1` rows.
fn hub_triangle(m: u64, seed: u64) -> (Vec<Table>, Expected) {
    let mut rng = Rng::new(seed, 3);
    let maps: Vec<Affine> = (0..3).map(|_| rng.affine()).collect(); // x, y, z
    let attrs = ["x", "y", "z"];
    let mut tables = Vec::new();
    for (name, a, b) in [("r", 0, 1), ("s", 1, 2), ("t", 2, 0)] {
        let header = format!("{}\t{}", attrs[a], attrs[b]);
        let (fa, fb) = (maps[a], maps[b]);
        tables.push(table(
            name,
            &header,
            2 * m as usize + 1,
            &mut rng,
            |i, out| {
                let i = i as u64;
                let (u, v) = if i <= m { (0, i) } else { (i - m, 0) };
                let _ = write!(out, "{}\t{}", fa.of(u), fb.of(v));
            },
        ));
    }
    let seeds: Vec<u64> = attrs.iter().map(|a| column_seed(a)).collect();
    let mut buf = String::new();
    let zero: Vec<u64> = (0..3)
        .map(|c| int_cell_hash(seeds[c], maps[c].of(0), &mut buf))
        .collect();
    let mut expected = Expected::default();
    expected.add_row(zero[0].wrapping_add(zero[1]).wrapping_add(zero[2]));
    for c in 0..3 {
        let others = (0..3)
            .filter(|&o| o != c)
            .fold(0u64, |s, o| s.wrapping_add(zero[o]));
        for v in 1..=m {
            expected.add_row(others.wrapping_add(int_cell_hash(seeds[c], maps[c].of(v), &mut buf)));
        }
    }
    (tables, expected)
}

/// The skewed chain `AB ⋈ BC ⋈ CD`: `B` has four values, so the first join
/// is quadratic — `n²/4` rows, each extended by its one `CD` match.
fn skewed_chain(n: u64, seed: u64) -> (Vec<Table>, Expected) {
    assert!(n.is_multiple_of(4), "chain_n must be a multiple of 4");
    let mut rng = Rng::new(seed, 4);
    let (fa, fb, fc, fd) = (rng.affine(), rng.affine(), rng.affine(), rng.affine());
    let rows = n as usize;
    let tables = vec![
        table("AB", "A\tB", rows, &mut rng, |i, out| {
            let _ = write!(out, "{}\t{}", fa.of(i as u64), fb.of(i as u64 % 4));
        }),
        table("BC", "B\tC", rows, &mut rng, |i, out| {
            let _ = write!(out, "{}\t{}", fb.of(i as u64 % 4), fc.of(i as u64));
        }),
        table("CD", "C\tD", rows, &mut rng, |i, out| {
            let _ = write!(out, "{}\t{}", fc.of(i as u64), fd.of(i as u64 % 3));
        }),
    ];
    let mut buf = String::new();
    let hashes = |name: &str, f: Affine, count: u64, buf: &mut String| -> Vec<u64> {
        let s = column_seed(name);
        (0..count).map(|v| int_cell_hash(s, f.of(v), buf)).collect()
    };
    let (ha, hb, hc, hd) = (
        hashes("A", fa, n, &mut buf),
        hashes("B", fb, 4, &mut buf),
        hashes("C", fc, n, &mut buf),
        hashes("D", fd, 3, &mut buf),
    );
    let mut expected = Expected::default();
    for i in 0..rows {
        let left = ha[i].wrapping_add(hb[i % 4]);
        for j in (i % 4..rows).step_by(4) {
            expected.add_row(left.wrapping_add(hc[j]).wrapping_add(hd[j % 3]));
        }
    }
    (tables, expected)
}

// ---------------------------------------------------------------------------
// Server workloads.

/// A hub `AB` with `spokes` relations `BC, BD, …` hanging off `B`, plus the
/// reducer program over them. The spokes all cover one seeded 97 % of the
/// key domain while the hub draws from all of it, so the reducer removes
/// hub rows — and, as in `exp_serve`, the spokes' key sets are one and the
/// same, so a warm run's joins find every build side in the index cache.
pub struct HubCatalog {
    pub tables: Vec<Table>,
    pub program: String,
    pub scheme: String,
    /// The reduced hub (`run` returns it): rows and `(A, B)` checksum.
    pub expected: Expected,
}

fn hub_catalog(
    hub_rows: usize,
    domain: usize,
    spokes: usize,
    spoke_rows: usize,
    rng: &mut Rng,
) -> HubCatalog {
    assert!((1..=9).contains(&spokes), "spoke attributes are C..K");
    assert!(spoke_rows >= domain, "every present key needs a spoke row");
    let attrs: Vec<char> = ('C'..='K').take(spokes).collect();
    let (fa, fb) = (rng.affine(), rng.affine());
    let hub_keys: Vec<usize> = (0..hub_rows).map(|_| rng.below(domain)).collect();
    let mut tables = vec![table("hub", "A\tB", hub_rows, rng, |i, out| {
        let _ = write!(out, "{}\t{}", fa.of(i as u64), fb.of(hub_keys[i] as u64));
    })];
    assert!(domain >= 2, "the spokes keep some keys and lack others");
    let mut in_spokes = vec![true; domain];
    for &k in rng
        .permutation(domain)
        .iter()
        .take((domain * 3 / 100).max(1))
    {
        in_spokes[k] = false;
    }
    let present: Vec<usize> = (0..domain).filter(|&k| in_spokes[k]).collect();
    for &a in &attrs {
        let fx = rng.affine();
        tables.push(table(
            &format!("spoke_{a}"),
            &format!("B\t{a}"),
            spoke_rows,
            rng,
            |j, out| {
                let k = present[j % present.len()];
                let _ = write!(out, "{}\t{}", fb.of(k as u64), fx.of(j as u64));
            },
        ));
    }

    // The reducer in the paper's notation: reduce every spoke by the hub,
    // project each to its hub key, intersect the keys, fold into the hub.
    let mut program = String::new();
    for a in &attrs {
        let _ = writeln!(program, "R(B{a}) := R(B{a}) ⋉ R(AB)");
    }
    for (i, a) in attrs.iter().enumerate() {
        let _ = writeln!(program, "R(K{i}) := π_B R(B{a})");
    }
    for i in 1..attrs.len() {
        let _ = writeln!(program, "R(K0) := R(K0) ⋈ R(K{i})");
    }
    program.push_str("R(AB) := R(AB) ⋉ R(K0)\n");
    let mut scheme = String::from("AB");
    for a in &attrs {
        let _ = write!(scheme, ",B{a}");
    }

    let (sa, sb) = (column_seed("A"), column_seed("B"));
    let mut buf = String::new();
    let b_hashes: Vec<u64> = (0..domain)
        .map(|k| int_cell_hash(sb, fb.of(k as u64), &mut buf))
        .collect();
    let mut expected = Expected::default();
    for (i, &k) in hub_keys.iter().enumerate() {
        if in_spokes[k] {
            expected
                .add_row(int_cell_hash(sa, fa.of(i as u64), &mut buf).wrapping_add(b_hashes[k]));
        }
    }
    HubCatalog {
        tables,
        program,
        scheme,
        expected,
    }
}

/// A request minus the catalog it names — `{"cmd":C,"catalog":` *name* `,`
/// *tail* `}` — so the churn loop can aim a pre-rendered payload at a fresh
/// catalog without quoting the TSV again for every operation.
struct Template {
    verb: Verb,
    tail: String,
    rows: u64,
    checksum: Option<u64>,
}

impl Template {
    fn at(&self, catalog: &str) -> Planned {
        let cmd = match self.verb {
            Verb::Run => "run",
            Verb::Query => "query",
            Verb::Load => "load",
            Verb::Compile => "compile",
        };
        Planned {
            verb: self.verb,
            line: format!(
                "{{\"cmd\":\"{cmd}\",\"catalog\":{},{}}}",
                quote(catalog),
                self.tail
            ),
            rows: self.rows,
            checksum: self.checksum,
        }
    }
}

fn load_template(t: &Table) -> Template {
    Template {
        verb: Verb::Load,
        tail: format!("\"name\":{},\"tsv\":{}", quote(&t.name), quote(&t.tsv)),
        rows: t.rows,
        checksum: None,
    }
}

impl HubCatalog {
    /// The `load`s and the `compile` that make the catalog resident.
    fn setup_templates(&self) -> Vec<Template> {
        let mut out: Vec<Template> = self.tables.iter().map(load_template).collect();
        out.push(Template {
            verb: Verb::Compile,
            tail: format!(
                "\"name\":\"reduce\",\"program\":{},\"scheme\":{}",
                quote(&self.program),
                quote(&self.scheme)
            ),
            rows: 0,
            checksum: None,
        });
        out
    }

    /// `run` of the reducer; with `tsv` the answer comes back and is
    /// checksummed, without it only `rows` is checked.
    fn run_template(&self, tsv: bool) -> Template {
        Template {
            verb: Verb::Run,
            tail: format!("\"name\":\"reduce\",\"tsv\":{tsv}"),
            rows: self.expected.rows,
            checksum: tsv.then_some(self.expected.checksum),
        }
    }
}

/// One request the timed loop sends, with what its response must say.
pub struct Planned {
    pub verb: Verb,
    pub line: String,
    /// `rows` in the response.
    pub rows: u64,
    /// Checksum of the response's `tsv` field, when the request asks for it.
    pub checksum: Option<u64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    Run,
    Query,
    Load,
    Compile,
}

/// Everything a server workload sends.
pub struct ServePlan {
    /// `load`s and the `compile` that make the resident state.
    pub setup: Vec<Planned>,
    /// The warm `run` with `tsv:true`, sent once in set-up so the reducer's
    /// answer is checked cell by cell.
    pub validate: Planned,
    /// The warm `run` (`tsv:false`) every timed operation is or starts from.
    pub warm_run: Planned,
    /// Churn only: the 8-atom `cq` query (`tsv:true`).
    pub cq: Option<Planned>,
    /// Churn only: small hub catalogs to load under fresh names — each the
    /// loads, the compile and the cold run.
    fresh: Vec<Vec<Template>>,
}

/// Six functional relations `p0(x0,x1) … p5(x5,x6)` with a tenth of the keys
/// missing from each; the query chains them and repeats the two end atoms
/// with a private variable each, which minimization folds away.
const CQ_TEXT: &str = "Q(a, g) :- p0(a, b), p1(b, c), p2(c, d), p3(d, e), p4(e, f), p5(f, g), \
     p0(a, u), p5(v, g)";

pub fn serve_plan(w: Workload, sizes: &Sizes, seed: u64) -> ServePlan {
    let mut rng = Rng::new(seed, 5);
    let hub = hub_catalog(
        sizes.hub_rows,
        sizes.hub_domain,
        sizes.spokes,
        sizes.spoke_rows,
        &mut rng,
    );
    let mut setup: Vec<Planned> = hub.setup_templates().iter().map(|t| t.at("hub")).collect();
    let validate = hub.run_template(true).at("hub");
    let warm_run = hub.run_template(false).at("hub");

    let (mut cq, mut fresh) = (None, Vec::new());
    if w == Workload::ServeChurn {
        let n = sizes.small_keys;
        // next[i][k] = Some(v): p_i holds (k, v).
        let next: Vec<Vec<Option<usize>>> = (0..6)
            .map(|_| {
                (0..n)
                    .map(|_| (rng.below(10) != 0).then(|| rng.below(n)))
                    .collect()
            })
            .collect();
        for (i, map) in next.iter().enumerate() {
            let present: Vec<usize> = (0..n).filter(|&k| map[k].is_some()).collect();
            let t = table(
                &format!("p{i}"),
                &format!("x{i}\tx{}", i + 1),
                present.len(),
                &mut rng,
                |j, out| {
                    let k = present[j];
                    let _ = write!(out, "{k}\t{}", map[k].expect("present"));
                },
            );
            setup.push(load_template(&t).at("small"));
        }
        let (sa, sg) = (column_seed("a"), column_seed("g"));
        let mut expected = Expected::default();
        let mut buf = String::new();
        for a in 0..n {
            let end = next.iter().try_fold(a, |k, map| map[k]);
            if let Some(g) = end {
                expected.add_row(
                    int_cell_hash(sa, a as i64, &mut buf)
                        .wrapping_add(int_cell_hash(sg, g as i64, &mut buf)),
                );
            }
        }
        cq = Some(
            Template {
                verb: Verb::Query,
                tail: format!("\"cq\":{},\"tsv\":true", quote(CQ_TEXT)),
                rows: expected.rows,
                checksum: Some(expected.checksum),
            }
            .at("small"),
        );
        fresh = (0..4)
            .map(|_| {
                let h = hub_catalog(
                    sizes.fresh_hub_rows,
                    sizes.fresh_domain,
                    3,
                    sizes.fresh_spoke_rows,
                    &mut rng,
                );
                let mut op = h.setup_templates();
                op.push(h.run_template(false));
                op
            })
            .collect();
    }
    ServePlan {
        setup,
        validate,
        warm_run,
        cq,
        fresh,
    }
}

impl ServePlan {
    /// The requests of one "fresh catalog" operation: load a small hub and
    /// its spokes under a catalog name nobody has used, compile the reducer,
    /// run it cold.
    pub fn fresh_requests(&self, variant: usize, catalog: &str) -> Vec<Planned> {
        self.fresh[variant % self.fresh.len()]
            .iter()
            .map(|t| t.at(catalog))
            .collect()
    }

    pub fn has_churn(&self) -> bool {
        self.cq.is_some()
    }
}

/// Which operation comes next in the churn mix: 70 % warm run, 25 % `cq`
/// query, 5 % fresh catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnOp {
    WarmRun,
    CqQuery,
    FreshCatalog,
}

pub fn churn_op(rng: &mut Rng) -> ChurnOp {
    match rng.below(100) {
        0..=69 => ChurnOp::WarmRun,
        70..=94 => ChurnOp::CqQuery,
        _ => ChurnOp::FreshCatalog,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_forms_hold() {
        let s = Sizes::smoke();
        let (_, e) = one_shot_tables(Workload::Ex3Dp, &s, 1);
        assert_eq!(e.rows, 1);
        let (t, e) = one_shot_tables(Workload::TriWcoj, &s, 1);
        assert_eq!(e.rows, 3 * s.tri_m + 1);
        assert_eq!(t[0].tsv.lines().count() as u64, 2 * s.tri_m + 2);
        let (_, e) = one_shot_tables(Workload::ChainSpill, &s, 1);
        assert_eq!(e.rows, s.chain_n * s.chain_n / 4);
        let (t, e) = one_shot_tables(Workload::StarQuery, &s, 1);
        assert_eq!(t[0].tsv.lines().count(), s.star_fact_rows + 1);
        assert!(e.rows > 0 && (e.rows as usize) < s.star_fact_rows / 5);
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let s = Sizes::smoke();
        for w in [
            Workload::Ex3Dp,
            Workload::StarQuery,
            Workload::TriWcoj,
            Workload::ChainSpill,
        ] {
            let (a, ea) = one_shot_tables(w, &s, 7);
            let (b, eb) = one_shot_tables(w, &s, 7);
            let (c, _) = one_shot_tables(w, &s, 8);
            assert_eq!(ea, eb);
            assert!(
                a.iter().zip(&b).all(|(x, y)| x.tsv == y.tsv),
                "{}",
                w.name()
            );
            assert!(
                a.iter().zip(&c).any(|(x, y)| x.tsv != y.tsv),
                "{}",
                w.name()
            );
        }
        let a = serve_plan(Workload::ServeChurn, &s, 7);
        let b = serve_plan(Workload::ServeChurn, &s, 7);
        assert!(a.setup.iter().zip(&b.setup).all(|(x, y)| x.line == y.line));
        assert_eq!(a.warm_run.rows, b.warm_run.rows);
        assert!(a.warm_run.rows > 0 && (a.warm_run.rows as usize) < s.hub_rows);
        assert!(a.cq.as_ref().is_some_and(|q| q.rows > 0));
        assert_eq!(a.fresh_requests(0, "f0").len(), 6);
    }
}
