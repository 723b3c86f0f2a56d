//! The call-graph rules (DESIGN.md §5h).
//!
//! Where the token rules in [`crate::rules`] are line-local, these rules
//! reason over the workspace call graph built by [`crate::graph`]:
//!
//! - `panic-reachable-from-kernel` — a panic sink (`panic!`, `assert*!`,
//!   `.unwrap()`, `.expect(`, `unreachable!`, `todo!`, `unimplemented!`)
//!   transitively reachable from a `[graph] kernel_entries` function.
//! - `wallclock-reachable` — a wall-clock sink (`Instant::now`,
//!   `SystemTime`, `.elapsed()`) reachable from a kernel *or* serialize
//!   entry point. Subsumes the line-local `determinism` clock check: the
//!   clock no longer has to sit inside a `kernel_paths` file to be caught.
//! - `entropy-reachable` — same entry set, entropy sinks (`thread_rng`,
//!   `from_entropy`, `OsRng`).
//! - `lock-order` — per-function guard-acquisition sets propagated through
//!   the call graph; a cycle in the resulting lock-order graph is a
//!   potential deadlock. Lock identity is the heuristic `(crate, receiver
//!   ident)` pair, and guard release is not modeled — both conservative,
//!   so a false positive takes an `allow(lock-order)` pragma.
//! - `unjoined-spawn` — a `thread::spawn` / `Builder…spawn` whose
//!   JoinHandle is discarded (statement position or `let _ =`), so nothing
//!   can ever join or supervise the thread.
//!
//! Every reachability finding carries a witness call path (see
//! [`crate::reach::Reachability::witness`]); every rule honors the
//! standard `// egeria-lint: allow(<rule>): <reason>` pragma at the
//! finding's anchor line. A rule only runs when its `[rules.<id>]` table
//! exists in lint.toml, so configs written before the graph rules keep
//! their exact behavior.

use crate::config::Config;
use crate::graph::{CallGraph, FnId};
use crate::parser::{ParsedFile, SinkKind};
use crate::reach::Reachability;
use crate::rules::Finding;
use std::collections::{BTreeMap, BTreeSet};

pub const PANIC_REACHABLE: &str = "panic-reachable-from-kernel";
pub const WALLCLOCK_REACHABLE: &str = "wallclock-reachable";
pub const ENTROPY_REACHABLE: &str = "entropy-reachable";
pub const LOCK_ORDER: &str = "lock-order";
pub const UNJOINED_SPAWN: &str = "unjoined-spawn";

/// All graph rule ids (spliced into [`crate::rules::ALL_RULES`]).
pub const GRAPH_RULES: &[&str] = &[
    PANIC_REACHABLE,
    WALLCLOCK_REACHABLE,
    ENTROPY_REACHABLE,
    LOCK_ORDER,
    UNJOINED_SPAWN,
];

/// Runs every configured graph rule over the parsed workspace. `deps` is
/// the transitively closed crate dependency map used to prune impossible
/// cross-crate edges (see [`CallGraph::build_with_deps`]); pass an empty
/// map to disable pruning. Pragma filtering happens in the caller (it owns
/// the per-file suppression maps).
pub fn run_graph_rules(
    files: &[ParsedFile],
    cfg: &Config,
    deps: &BTreeMap<String, BTreeSet<String>>,
) -> Vec<Finding> {
    let graph = CallGraph::build_with_deps(files, deps);
    let mut findings = Vec::new();

    let kernel_entries = graph.match_entries(cfg.graph.list("kernel_entries"));
    let serialize_entries = graph.match_entries(cfg.graph.list("serialize_entries"));
    let mut det_entries: Vec<FnId> = kernel_entries.clone();
    det_entries.extend(serialize_entries.iter().copied());

    if cfg.has_rule(PANIC_REACHABLE) && !kernel_entries.is_empty() {
        let reach = Reachability::compute(&graph, &kernel_entries);
        sink_findings(
            files,
            &reach,
            SinkKind::Panic,
            PANIC_REACHABLE,
            "reachable from a kernel entry point; a panic mid-train-step breaks \
             checkpoint/resume and freezing-timeline replay",
            &mut findings,
        );
    }
    if cfg.has_rule(WALLCLOCK_REACHABLE) && !det_entries.is_empty() {
        let reach = Reachability::compute(&graph, &det_entries);
        sink_findings(
            files,
            &reach,
            SinkKind::WallClock,
            WALLCLOCK_REACHABLE,
            "wall-clock read reachable from a kernel/serialize entry point; \
             bit-identical replay (golden-run fingerprint) forbids time-dependent \
             values on these paths",
            &mut findings,
        );
    }
    if cfg.has_rule(ENTROPY_REACHABLE) && !det_entries.is_empty() {
        let reach = Reachability::compute(&graph, &det_entries);
        sink_findings(
            files,
            &reach,
            SinkKind::Entropy,
            ENTROPY_REACHABLE,
            "entropy source reachable from a kernel/serialize entry point; \
             bit-identical replay forbids nondeterministic values on these paths",
            &mut findings,
        );
    }
    if cfg.has_rule(LOCK_ORDER) {
        lock_order(files, &graph, &mut findings);
    }
    if cfg.has_rule(UNJOINED_SPAWN) {
        unjoined_spawn(files, cfg, &mut findings);
    }
    findings
}

/// Emits one finding per sink site of `kind` inside a reachable function.
fn sink_findings(
    files: &[ParsedFile],
    reach: &Reachability,
    kind: SinkKind,
    rule: &'static str,
    why: &str,
    findings: &mut Vec<Finding>,
) {
    for (fi, pf) in files.iter().enumerate() {
        for sink in &pf.sinks {
            if sink.kind != kind {
                continue;
            }
            let id: FnId = (fi, sink.fn_idx);
            if pf.fns[sink.fn_idx].is_test || !reach.contains(id) {
                continue;
            }
            let witness = reach.witness(files, id, &sink.what, sink.line, sink.col);
            findings.push(Finding {
                rule,
                path: pf.rel.clone(),
                line: sink.line,
                col: sink.col,
                message: format!("`{}` {why}; witness: {witness}", sink.what),
            });
        }
    }
}

/// Heuristic lock identity: crate label + receiver ident.
type LockId = (String, String);

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct AcqSite {
    file: String,
    line: u32,
    col: u32,
    fn_qual: String,
}

/// `lock-order`: builds per-function acquisition lists, propagates
/// "eventually acquires" sets through the call graph, adds held→acquired
/// edges, and reports every strongly-connected component of ≥ 2 locks.
fn lock_order(files: &[ParsedFile], graph: &CallGraph, findings: &mut Vec<Finding>) {
    // Known Mutex/RwLock field names per crate, so `.read()`/`.write()`
    // (which also name ubiquitous io methods) only count on lock fields.
    // `.lock()` always counts.
    let mut lock_fields: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for pf in files {
        lock_fields
            .entry(pf.krate.clone())
            .or_default()
            .extend(pf.lock_fields.iter().cloned());
    }

    // Per-function ordered acquisitions.
    let mut acqs: BTreeMap<FnId, Vec<(LockId, u32, u32)>> = BTreeMap::new();
    for (fi, pf) in files.iter().enumerate() {
        let known = lock_fields.get(&pf.krate);
        for l in &pf.locks {
            if l.name.is_empty() || pf.fns[l.fn_idx].is_test {
                continue;
            }
            let is_lock_method = {
                // LockSite records `.lock()`, `.read()`, `.write()` — the
                // parser stores all three; distinguish via the known-field
                // check recorded in `method` semantics: `.lock()` sites have
                // priority, `.read()`/`.write()` must hit a known field.
                l.method == "lock"
                    || known.is_some_and(|k| k.contains(&l.name))
            };
            if !is_lock_method {
                continue;
            }
            acqs.entry((fi, l.fn_idx)).or_default().push((
                (pf.krate.clone(), l.name.clone()),
                l.line,
                l.col,
            ));
        }
    }

    // Fixpoint: EA(f) = own locks ∪ ⋃ EA(callees), with one representative
    // acquisition site per lock.
    let mut ea: BTreeMap<FnId, BTreeMap<LockId, AcqSite>> = BTreeMap::new();
    for (&f, list) in &acqs {
        let m = ea.entry(f).or_default();
        for (id, line, col) in list {
            m.entry(id.clone()).or_insert_with(|| AcqSite {
                file: files[f.0].rel.clone(),
                line: *line,
                col: *col,
                fn_qual: files[f.0].fns[f.1].qual.clone(),
            });
        }
    }
    let mut changed = true;
    while changed {
        changed = false;
        // Deterministic iteration; small graphs converge in a few rounds.
        let callers: Vec<FnId> = graph.edges.keys().copied().collect();
        for f in callers {
            let mut add: Vec<(LockId, AcqSite)> = Vec::new();
            if let Some(edges) = graph.edges.get(&f) {
                for e in edges {
                    if let Some(sub) = ea.get(&e.callee) {
                        for (id, site) in sub {
                            if !ea.get(&f).is_some_and(|m| m.contains_key(id)) {
                                add.push((id.clone(), site.clone()));
                            }
                        }
                    }
                }
            }
            if !add.is_empty() {
                let m = ea.entry(f).or_default();
                for (id, site) in add {
                    if m.insert(id.clone(), site).is_none() {
                        changed = true;
                    }
                }
            }
        }
    }

    // Lock-order edges: A → B when a function holds A (acquired earlier in
    // its body) and then acquires B directly or through a call. Guard drops
    // are not modeled (conservative).
    #[derive(Debug, Clone)]
    struct EdgeInfo {
        hold: AcqSite,
        acq: AcqSite,
        via: Option<String>,
    }
    let mut lock_edges: BTreeMap<LockId, BTreeMap<LockId, EdgeInfo>> = BTreeMap::new();
    let mut add_edge = |a: &LockId, b: &LockId, info: EdgeInfo| {
        if a == b {
            return;
        }
        lock_edges
            .entry(a.clone())
            .or_default()
            .entry(b.clone())
            .or_insert(info);
    };
    for (&f, list) in &acqs {
        // Intra-function: later acquisitions while earlier guards are live.
        for i in 0..list.len() {
            for j in (i + 1)..list.len() {
                let (a, al, ac) = &list[i];
                let (b, bl, bc) = &list[j];
                add_edge(
                    a,
                    b,
                    EdgeInfo {
                        hold: AcqSite {
                            file: files[f.0].rel.clone(),
                            line: *al,
                            col: *ac,
                            fn_qual: files[f.0].fns[f.1].qual.clone(),
                        },
                        acq: AcqSite {
                            file: files[f.0].rel.clone(),
                            line: *bl,
                            col: *bc,
                            fn_qual: files[f.0].fns[f.1].qual.clone(),
                        },
                        via: None,
                    },
                );
            }
        }
        // Inter-function: calls positioned after an acquisition pull in the
        // callee's eventual acquisitions.
        if let Some(edges) = graph.edges.get(&f) {
            for (a, al, ac) in list {
                for e in edges {
                    if (e.line, e.col) <= (*al, *ac) {
                        continue;
                    }
                    if let Some(sub) = ea.get(&e.callee) {
                        for (b, site) in sub {
                            add_edge(
                                a,
                                b,
                                EdgeInfo {
                                    hold: AcqSite {
                                        file: files[f.0].rel.clone(),
                                        line: *al,
                                        col: *ac,
                                        fn_qual: files[f.0].fns[f.1].qual.clone(),
                                    },
                                    acq: site.clone(),
                                    via: Some(graph.qual(files, e.callee).to_string()),
                                },
                            );
                        }
                    }
                }
            }
        }
    }

    // SCCs of ≥ 2 locks are ordering cycles. The graph is tiny; a simple
    // iterative Tarjan suffices.
    let nodes: Vec<LockId> = lock_edges
        .iter()
        .flat_map(|(a, bs)| std::iter::once(a.clone()).chain(bs.keys().cloned()))
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let index_of: BTreeMap<&LockId, usize> = nodes.iter().enumerate().map(|(i, n)| (n, i)).collect();
    let adj: Vec<Vec<usize>> = nodes
        .iter()
        .map(|n| {
            lock_edges
                .get(n)
                .map(|bs| bs.keys().map(|b| index_of[b]).collect())
                .unwrap_or_default()
        })
        .collect();
    for scc in sccs(&adj) {
        if scc.len() < 2 {
            continue;
        }
        let mut members: Vec<&LockId> = scc.iter().map(|&i| &nodes[i]).collect();
        members.sort();
        let in_scc: BTreeSet<&LockId> = members.iter().copied().collect();
        let mut parts: Vec<String> = Vec::new();
        let mut anchor: Option<AcqSite> = None;
        for a in &members {
            if let Some(bs) = lock_edges.get(*a) {
                for (b, info) in bs {
                    if !in_scc.contains(b) {
                        continue;
                    }
                    if anchor.is_none() {
                        anchor = Some(info.hold.clone());
                    }
                    let via = match &info.via {
                        Some(v) => format!(" via {v}"),
                        None => String::new(),
                    };
                    parts.push(format!(
                        "`{}` held in {} ({}:{}:{}) then `{}` acquired{} ({}:{}:{})",
                        a.1,
                        info.hold.fn_qual,
                        info.hold.file,
                        info.hold.line,
                        info.hold.col,
                        b.1,
                        via,
                        info.acq.file,
                        info.acq.line,
                        info.acq.col
                    ));
                }
            }
        }
        let anchor = anchor.expect("scc of size >= 2 has at least one internal edge");
        let names: Vec<String> = members.iter().map(|m| format!("`{}`", m.1)).collect();
        findings.push(Finding {
            rule: LOCK_ORDER,
            path: anchor.file.clone(),
            line: anchor.line,
            col: anchor.col,
            message: format!(
                "lock-order cycle among {} — inconsistent acquisition order can \
                 deadlock: {}",
                names.join(", "),
                parts.join("; ")
            ),
        });
    }
}

/// Iterative Tarjan SCC over an adjacency list.
fn sccs(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = adj.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut out: Vec<Vec<usize>> = Vec::new();

    // Explicit DFS stack: (node, edge cursor).
    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        let mut dfs: Vec<(usize, usize)> = vec![(start, 0)];
        while let Some(&mut (v, ref mut cursor)) = dfs.last_mut() {
            if *cursor == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if *cursor < adj[v].len() {
                let w = adj[v][*cursor];
                *cursor += 1;
                if index[w] == usize::MAX {
                    dfs.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
                continue;
            }
            dfs.pop();
            if let Some(&(parent, _)) = dfs.last() {
                low[parent] = low[parent].min(low[v]);
            }
            if low[v] == index[v] {
                let mut comp = Vec::new();
                while let Some(w) = stack.pop() {
                    on_stack[w] = false;
                    comp.push(w);
                    if w == v {
                        break;
                    }
                }
                out.push(comp);
            }
        }
    }
    out
}

/// `unjoined-spawn`: spawn sites whose JoinHandle is discarded.
fn unjoined_spawn(files: &[ParsedFile], cfg: &Config, findings: &mut Vec<Finding>) {
    let skip_tests = cfg.rule(UNJOINED_SPAWN).bool("skip_test_code", true);
    for pf in files {
        if !cfg.rule_applies(UNJOINED_SPAWN, &pf.rel) {
            continue;
        }
        for s in &pf.spawns {
            if s.handle_used || (skip_tests && pf.fns[s.fn_idx].is_test) {
                continue;
            }
            findings.push(Finding {
                rule: UNJOINED_SPAWN,
                path: pf.rel.clone(),
                line: s.line,
                col: s.col,
                message: format!(
                    "spawned thread's JoinHandle is discarded (in `{}`); bind and join \
                     it, or hand it to a supervisor, so shutdown can prove the thread \
                     exited",
                    pf.fns[s.fn_idx].qual
                ),
            });
        }
    }
}
