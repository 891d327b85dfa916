"""The four workloads: their instance templates, how an instance calls the
program, how its result is made canonical, and how its certificate is
re-checked through the program's public verify functions.

A template names one kind of search at fixed parameters.  Its variants
differ only in a seed (a coloring seed, a sequence seed, or a config
seed).  ``freeze.py`` runs candidate variants against the code the
benchmark was defined on, keeps the ``pool`` variants whose run times lie
closest to the median (so every draw costs about the same), and stores
each kept variant's canonical result digest in ``expected.json``.  A run
draws ``count`` variants of every template per pass from the workload seed
and the pass number, so passes differ in their inputs but not in their
cost, and nothing can be reused from one pass to the next.

Known failures are instances that fail at the code the benchmark was
defined on.  They stay in their workloads, are counted as failed, and are
listed with the defect they show.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field, fields, is_dataclass
from enum import Enum
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Optional

LAYERS = ("semigroups", "coloring", "search", "covers", "partition",
          "filters", "games", "cli")

DEFAULT_LIMIT_S = 60.0


@dataclass(frozen=True)
class Known:
    """A documented failure at the code the benchmark was defined on."""

    error: str     # exception name the failure raises, or "WallLimit"
    defect: str


@dataclass
class Template:
    name: str
    kind: str
    params: dict
    count: int = 1           # instances drawn per pass
    pool: int = 6            # variants kept by the freeze
    candidates: int = 16     # variants the freeze tries
    known: Optional[Known] = None
    limit_s: float = DEFAULT_LIMIT_S


@dataclass
class Instance:
    id: str
    template: Template
    run: Callable[[], Any]
    check: Callable[[Any], bool] = field(default=lambda result: True)
    # cli instances: where the report is stored for verify-report
    out_path: Optional[Path] = None


# ---------------------------------------------------------------------------
# templates
# ---------------------------------------------------------------------------

# Templates whose run time varies widely between coloring seeds keep a
# narrower pool out of more candidates.
_NARROW = dict(pool=4, candidates=24)


def _mt(base, d, m, hi, k, count, vertex=False, chain=False, **kw):
    tag = "".join(("-vertex" if vertex else "", "-chain" if chain else ""))
    return Template(f"mt/{base}/d{d}/m{m}/h{hi}/k{k}{tag}", "mt",
                    dict(base=base, d=d, m=m, hi=hi, k=k, vertex=vertex,
                         chain=chain), count=count, **kw)


def _hindman(coloring, k, m, max_value, count, **kw):
    return Template(f"hindman/{coloring}/k{k}/m{m}/v{max_value}", "hindman",
                    dict(coloring=coloring, k=k, m=m, max_value=max_value),
                    count=count, **kw)


def _poc(depth, gen_max, count):
    return Template(f"poc/depth{depth}/gen{gen_max}", "poc",
                    dict(depth=depth, gen_max=gen_max), count=count,
                    pool=12, candidates=16)


BLOCK_SEARCH = [
    _mt("nat", 2, 3, 8, 2, 4), _mt("fin", 2, 3, 8, 2, 4),
    _mt("nat", 2, 3, 8, 3, 3), _mt("fin", 2, 3, 8, 3, 3),
    _mt("nat", 2, 4, 10, 2, 1), _mt("fin", 2, 4, 10, 2, 1),
    _mt("nat", 2, 4, 10, 3, 1), _mt("fin", 2, 4, 10, 3, 1),
    _mt("nat", 3, 3, 8, 3, 3), _mt("fin", 3, 3, 8, 2, 3),
    _mt("nat", 3, 4, 10, 2, 3), _mt("fin", 3, 4, 10, 2, 3),
    _mt("nat", 3, 4, 10, 3, 2, **_NARROW), _mt("fin", 3, 4, 10, 3, 2, **_NARROW),
    _mt("nat", 2, 3, 8, 2, 2, vertex=True),
    _mt("fin", 2, 3, 8, 2, 2, vertex=True, **_NARROW),
    _mt("nat", 2, 4, 10, 2, 1, vertex=True), _mt("fin", 2, 4, 10, 2, 1, vertex=True),
    _mt("nat", 2, 3, 10, 2, 3, chain=True), _mt("fin", 2, 3, 10, 2, 3, chain=True),
    _hindman("mod", 2, 3, 60, 2), _hindman("mod", 3, 4, 80, 2),
    _hindman("hash", 2, 3, 80, 4), _hindman("hash", 2, 4, 80, 2, **_NARROW),
    _hindman("hash", 3, 3, 80, 3), _hindman("hash", 3, 4, 80, 1),
    _poc(4, 2, 8), _poc(4, 4, 8), _poc(5, 3, 8), _poc(5, 6, 8),
    _poc(6, 4, 8), _poc(6, 8, 8),
]


def _menger(target, hi, count, vertex=False, **kw):
    tag = "-vertex" if vertex else ""
    return Template(f"menger/{target}/h{hi}{tag}", "menger",
                    dict(target=target, hi=hi, vertex=vertex), count=count, **kw)


# cofinite variants run over (truncation, target, rounds) combinations
_COFINITE_CASES = [(t, target, m) for t in (6, 7, 8) for target in ("op", "lambda")
                   for m in (2, 3)]

COVER_PARTITION = [
    _menger("lambda", 10, 1), _menger("lambda", 11, 1), _menger("lambda", 12, 1),
    _menger("omega", 11, 2), _menger("omega", 12, 2),
    _menger("gamma", 11, 2), _menger("gamma", 12, 2),
    _menger("lambda", 11, 1, vertex=True, **_NARROW),
    Template("cofinite/constant", "cofinite", dict(coloring="constant"), count=3,
             pool=len(_COFINITE_CASES), candidates=len(_COFINITE_CASES)),
    Template("cofinite/cardinality", "cofinite", dict(coloring="cardinality"),
             count=3, pool=len(_COFINITE_CASES), candidates=len(_COFINITE_CASES)),
    Template("comb/K4", "comb", dict(K=4), count=1),
    Template("comb/K5", "comb", dict(K=5), count=1),
    Template("cofinite/seeded-hash", "cofinite", dict(coloring="seeded-hash"),
             pool=1, candidates=1,
             known=Known("TypeError", "SSet.stable_key applies b'%d' to the "
                         "frozenset points of the cofinite space, so a seeded-hash "
                         "coloring of its unions raises TypeError")),
]


def _threshold(colors, repeats, max_value=64, **kw):
    mode = "rep" if repeats else "norep"
    return Template(f"threshold/k{colors}/{mode}/v{max_value}", "cli",
                    {"command": "threshold", "colors": colors, "repeats": repeats,
                     "max_value": max_value}, pool=1, candidates=1, **kw)


# The small cases run several times a pass, so that instance_p50_ms rests
# on more than a handful of samples; k = 2 with repeats, which holds the
# median, runs most often so that the median falls inside its group.
SCHUR = [
    _threshold(1, True, count=4), _threshold(1, False, count=4),
    _threshold(2, True, count=8), _threshold(2, False, count=4),
    _threshold(3, True), _threshold(4, True, max_value=40),
    _threshold(3, False, limit_s=1.0,
               known=Known("WallLimit", "k=3 without repeats finishes its DFS at "
                           "N=24, then confirms by a flat scan of all 3^24 "
                           "colorings, which never ends")),
]

# Published thresholds: least N forcing a monochromatic x + y = z in every
# k-coloring of {1..N} (Schur 1916; Baumert 1965 for k = 3), and N = 9 for
# two colors with x != y.
SCHUR_ORACLE = {(1, True): 2, (2, True): 5, (3, True): 14, (2, False): 9,
                (3, False): 24}


def _cli(name, config, vary=None, count=1, **kw):
    pool = kw.pop("pool", 4 if vary else 1)
    candidates = kw.pop("candidates", 8 if vary else 1)
    return Template(f"cli/{name}", "cli", dict(config, vary=vary), count=count,
                    pool=pool, candidates=candidates, **kw)


_HASH2 = {"name": "seeded-hash-k", "k": 2}

REPORT_ROUNDTRIP = [
    # the README examples
    _cli("readme-threshold", {"command": "threshold", "colors": 2, "repeats": True}),
    _cli("readme-hindman", {"command": "search-hindman", "coloring": {"name": "parity"},
                            "m": 2, "max_value": 7}),
    _cli("readme-mt", {"command": "search-mt",
                       "edge_coloring": {"name": "seeded-hash-k", "k": 2, "seed": 4},
                       "semigroup": "finite-sets", "base": "singletons", "m": 3,
                       "d": 2, "max_index": 8}),
    _cli("readme-poc", {"command": "proper-or-collapse", "depth": 5, "runs": 10,
                        "seed": 1}),
    _cli("readme-filter-laws", {"command": "verify-filter-laws", "ground": 3}),
    _cli("readme-chain-ap", {"command": "chain-check", "chain": "ap", "depth": 4}),
    _cli("readme-play", {"command": "play-game", "alice": "dual-random",
                         "bob": "filter", "rounds": 16, "horizon": 16}),
    _cli("readme-diagonal", {"command": "game-transfer", "which": "diagonal", "n": 3,
                             "horizon": 8}),
    _cli("readme-cover-partition", {"command": "cover-partition", "instance": "cofinite",
                                    "truncation": 6,
                                    "edge_coloring": {"name": "constant"}, "m": 2,
                                    "d": 2, "target": "op", "horizon": 1,
                                    "max_index": 6}),
    _cli("readme-encode", {"command": "encode-classical", "truncation": 8}),
    # heavier and seeded configs
    _cli("filter-laws-4", {"command": "verify-filter-laws", "ground": 4}),
    _cli("chain-density", {"command": "chain-check", "chain": "density", "depth": 4}),
    _cli("chain-fs-pow2", {"command": "chain-check", "chain": "fs-tails-pow2",
                           "depth": 3}),
    _cli("chain-fs-singletons", {"command": "chain-check",
                                 "chain": "fs-tails-singletons", "depth": 3}),
    _cli("play-dual-random", {"command": "play-game", "alice": "dual-random",
                              "bob": "filter", "rounds": 24, "horizon": 24},
         vary="seed", count=3),
    _cli("play-intervals", {"command": "play-game", "alice": "intervals",
                            "bob": "first", "rounds": 12, "horizon": 12}),
    _cli("transfer-gfin", {"command": "game-transfer", "which": "gfin-to-g1",
                           "horizon": 8}, vary="seed", count=2),
    _cli("transfer-diagonal-2", {"command": "game-transfer", "which": "diagonal",
                                 "n": 2, "horizon": 12}),
    _cli("encode-6", {"command": "encode-classical", "truncation": 6}),
    _cli("threshold-2-norep", {"command": "threshold", "colors": 2, "repeats": False}),
    _cli("hindman-mod3", {"command": "search-hindman", "coloring": {"name": "mod-k", "k": 3},
                          "m": 3, "max_value": 60}),
    _cli("mt-hash", {"command": "search-mt", "edge_coloring": _HASH2,
                     "semigroup": "naturals", "base": "powers-of-two", "m": 3, "d": 2,
                     "max_index": 8}, vary="seed", count=3),
    _cli("poc-runs", {"command": "proper-or-collapse", "depth": 5, "runs": 10},
         vary="seed", count=2),
    _cli("cover-partition-lambda", {"command": "cover-partition",
                                    "instance": "initial-segments",
                                    "edge_coloring": _HASH2, "m": 3, "d": 2,
                                    "target": "lambda", "horizon": 6, "max_index": 9},
         vary="seed", count=2),
    _cli("play-lambda-target", {"command": "play-game", "alice": "dual-random",
                                "bob": "filter", "rounds": 8, "horizon": 8,
                                "target": "lambda"},
         known=Known("TypeError", "play-game --target lambda passes t twice: "
                     "judge() got multiple values for argument 't'")),
    _cli("play-gfin", {"command": "play-game", "alice": "intervals", "bob": "first",
                       "rounds": 8, "horizon": 8, "mode": "gfin"},
         known=Known("TypeError", "play-game --mode gfin with a stock bob: play() "
                     "calls tuple(b_move) on a single SSet pick")),
]

WORKLOADS = {
    "block-search": BLOCK_SEARCH,
    "cover-partition": COVER_PARTITION,
    "schur": SCHUR,
    "report-roundtrip": REPORT_ROUNDTRIP,
}

# Cheap templates run once in set-up, so that first-call costs fall there.
WARMUP = {
    "block-search": ["mt/nat/d2/m3/h8/k2", "hindman/mod/k2/m3/v60", "poc/depth4/gen2"],
    "cover-partition": ["cofinite/constant", "comb/K4"],
    "schur": ["threshold/k2/rep/v64"],
    "report-roundtrip": ["cli/readme-threshold", "cli/readme-filter-laws"],
}


def template_by_name(workload: str, name: str) -> Template:
    for t in WORKLOADS[workload]:
        if t.name == name:
            return t
    raise KeyError(name)


# ---------------------------------------------------------------------------
# building instances
# ---------------------------------------------------------------------------

def program(modules: dict) -> SimpleNamespace:
    """The sumgames layer modules, looked up by attribute at call time so
    that the tracer's wrappers are seen."""
    return SimpleNamespace(**{name: modules[f"sumgames.{name}"] for name in LAYERS})


def build(P, template: Template, variant: int, out_dir: Path) -> Instance:
    """One instance of a template.  The program receives only the inputs
    built here from the variant."""
    iid = f"{template.name}/v{variant}"
    return _BUILDERS[template.kind](P, template, variant, iid, out_dir)


def _base(P, kind: str):
    if kind == "nat":
        sg = P.semigroups.naturals()
        return sg, P.semigroups.ElementSequence.from_fn(sg, lambda i: 2 ** (i - 1))
    sg = P.semigroups.finite_sets()
    return sg, P.semigroups.ElementSequence.from_fn(sg, lambda i: frozenset({i}))


def _build_mt(P, t, v, iid, out_dir):
    p = t.params
    sg, base = _base(P, p["base"])
    d = p["d"]
    chi = P.coloring.seeded_hash_coloring(p["k"], v, d)
    chi_v = P.coloring.seeded_hash_coloring(2, 1000 + v, 1) if p["vertex"] else None
    chain = P.filters.fs_tail_chain(base) if p["chain"] else None
    budget = P.search.SearchBudget(max_index=p["hi"])

    def run():
        return P.search.mt_search(chi, sg, base, p["m"], d, budget, chain=chain,
                                  chi_vertex=chi_v)

    def check(w):
        if not isinstance(w, P.search.Witness):
            return True
        eta = (P.coloring.reduce_two_dim_to_one(chi_v, chi, sg)
               if chi_v is not None and d == 2 else None)
        return P.search.verify_mt_witness(w, sg, base, chi, d, chi_vertex=chi_v,
                                          chain=chain, eta=eta)

    return Instance(iid, t, run, check)


def _build_hindman(P, t, v, iid, out_dir):
    p = t.params
    if p["coloring"] == "mod":
        chi, max_value = P.coloring.mod_coloring(p["k"]), p["max_value"] + v
    else:
        chi, max_value = P.coloring.seeded_hash_coloring(p["k"], v, 1), p["max_value"]
    budget = P.search.SearchBudget(max_value=max_value)

    def run():
        return P.search.hindman_search(chi, p["m"], budget)

    def check(w):
        if not isinstance(w, P.search.Witness):
            return True
        return P.search.verify_hindman_witness(w, chi)

    return Instance(iid, t, run, check)


def _build_poc(P, t, v, iid, out_dir):
    depth, gen_max = t.params["depth"], t.params["gen_max"]
    rng = random.Random(v)
    terms = [frozenset(rng.sample(range(1, gen_max + 1),
                                  rng.randint(1, max(1, gen_max // 2))))
             for _ in range(depth)]
    seq = P.semigroups.ElementSequence.from_terms(P.semigroups.finite_sets(), terms)

    def run():
        return P.search.proper_or_collapse(seq, depth)

    def check(out):
        return P.search.verify_dichotomy(out, seq)

    return Instance(iid, t, run, check)


def _partition_check(P, dc, chi_e, chi_v, horizon, params):
    def check(w):
        if not isinstance(w, P.partition.PartitionWitness):
            return True
        return P.partition.verify_partition_witness(w, dc, chi_e, 2, chi_vertex=chi_v,
                                                    horizon=horizon, **params)

    return check


def _build_menger(P, t, v, iid, out_dir):
    p = t.params
    dc = P.partition.initial_segment_covers(P.covers.Space.naturals())
    chi_e = P.coloring.seeded_hash_coloring(2, v, 2)
    chi_v = P.coloring.seeded_hash_coloring(2, 1000 + v, 1) if p["vertex"] else None
    target = P.covers.CoverKind(p["target"])
    budget = P.search.SearchBudget(max_index=p["hi"])
    horizon = 6

    def run():
        return P.partition.menger_mt_search(dc, chi_v, chi_e, 3, 2, target, horizon,
                                            budget)

    return Instance(iid, t, run, _partition_check(P, dc, chi_e, chi_v, horizon, {}))


def _build_cofinite(P, t, v, iid, out_dir):
    name = t.params["coloring"]
    truncation, target, m = _COFINITE_CASES[v]
    dc = P.partition.encode_cofinite_example(truncation).dc
    chi_e = {"constant": lambda: P.coloring.constant_coloring(2),
             "cardinality": lambda: P.coloring.cardinality_coloring(2),
             "seeded-hash": lambda: P.coloring.seeded_hash_coloring(2, v, 2)}[name]()
    kind = P.covers.CoverKind(target)
    budget = P.search.SearchBudget(max_index=truncation)
    horizon = 1

    def run():
        return P.partition.menger_mt_search(dc, None, chi_e, m, 2, kind, horizon, budget)

    return Instance(iid, t, run, _partition_check(P, dc, chi_e, None, horizon, {}))


def _build_comb(P, t, v, iid, out_dir):
    K = t.params["K"]
    dc = P.partition.initial_segment_covers(P.covers.Space.naturals())
    chi_e = P.coloring.seeded_hash_coloring(2, v, 2)
    budget = P.search.SearchBudget(max_index=10)

    def run():
        return P.partition.discrete_comb_search(K, None, chi_e, 3, 2, budget, dc=dc)

    return Instance(iid, t, run, _partition_check(P, dc, chi_e, None, K, {"s": 2}))


def _build_cli(P, t, v, iid, out_dir):
    config = {k: val for k, val in t.params.items() if k != "vary"}
    if t.params.get("vary"):
        config[t.params["vary"]] = v

    def run():
        # Without an output path dispatch writes the report to stdout; it is
        # caught here so that file-system latency stays out of the timing.
        report = io.StringIO()
        with contextlib.redirect_stdout(report):
            P.cli.dispatch(P.cli.parse_config(config))
        return report.getvalue()

    return Instance(iid, t, run, out_path=Path(out_dir) / (iid.replace("/", "_") + ".jsonl"))


_BUILDERS = {
    "mt": _build_mt, "hindman": _build_hindman, "poc": _build_poc,
    "menger": _build_menger, "cofinite": _build_cofinite, "comb": _build_comb,
    "cli": _build_cli,
}


def draw(workload: str, seed: int, pass_index: int, pools: dict) -> list:
    """(template, variant) pairs of one pass, in run order.  Each template
    contributes ``count`` variants from its frozen pool: distinct ones
    when the pool is large enough, repeated ones otherwise."""
    rng = random.Random(f"{workload}:{seed}:{pass_index}")
    picks = []
    for t in WORKLOADS[workload]:
        pool = pools[t.name]
        chosen = (rng.sample(pool, t.count) if t.count <= len(pool)
                  else rng.choices(pool, k=t.count))
        picks += [(t, v) for v in chosen]
    rng.shuffle(picks)
    return picks


# ---------------------------------------------------------------------------
# canonical results
# ---------------------------------------------------------------------------

# Node counts may change with any search improvement, notes are free text,
# and certificates are re-checked by their verify functions instead, so
# none of them is part of a frozen result.
_UNFROZEN = frozenset({"nodes", "note", "certificate"})


def plain(x) -> Any:
    """A JSON-able, order-independent form of a program result."""
    if isinstance(x, Enum):
        return x.value
    if is_dataclass(x) and not isinstance(x, type):
        return {"type": type(x).__name__,
                **{f.name: plain(getattr(x, f.name)) for f in fields(x)
                   if f.name not in _UNFROZEN}}
    if isinstance(x, (frozenset, set)):
        return sorted((plain(v) for v in x), key=lambda v: json.dumps(v, sort_keys=True))
    if isinstance(x, (list, tuple)):
        return [plain(v) for v in x]
    if isinstance(x, dict):
        return {str(k): plain(v) for k, v in x.items() if k not in _UNFROZEN}
    if x is None or isinstance(x, (bool, int, float, str)):
        return x
    raise TypeError(f"no canonical form for {type(x).__name__}")


def canonical(instance: Instance, result) -> Any:
    """The canonical result: the report record for cli instances, the
    plain result otherwise."""
    if instance.out_path is not None:
        return plain(json.loads(result))
    return plain(result)


def digest(canon) -> str:
    import hashlib

    text = json.dumps(canon, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def oracle_ok(template: Template, canon) -> bool:
    """Schur thresholds against their published values."""
    if template.kind != "cli" or template.params.get("command") != "threshold":
        return True
    key = (template.params["colors"], template.params["repeats"])
    want = SCHUR_ORACLE.get(key)
    if want is None:
        return True
    result = canon["result"]
    return result["found"] is True and result["n"] == want
