"""Command-line entry point: wires config descriptors to the searches,
games and verification suites, and emits reproducible reports.

Reports are JSON lines, one result object per line, each carrying the
schema version, the full input config, and the certificates needed to
re-check the result; ``verify-report`` re-runs each record's config and
re-verifies the certificates.  All randomness flows from the single config
seed, so a fixed seed gives byte-identical reports.

Exit codes: 0 witness found / verified, 1 exhausted / failed,
2 unknown at depth, 3 usage error.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .coloring import Coloring, coloring_from_descriptor
from .covers import Cover, CoverKind, SSet, Space, classify_cover
from .filters import chain_check, fs_tail_chain, verify_duality_laws
from .games import (
    Mode,
    Outcome,
    Strategy,
    SetMove,
    convert_gfin_to_g1,
    diagonal_transfer,
    filter_intersection_bob,
    judge,
    meets_all_generators,
    play,
    point_multiplicity,
    scripted_alice,
)
from .partition import (
    PartitionWitness,
    ap_family,
    build_constrained_chain,
    density_family,
    encode_cofinite_example,
    initial_segment_covers,
    menger_mt_search,
)
from .search import (
    Collapse,
    Proper,
    SearchBudget,
    Witness,
    hindman_search,
    mt_search,
    proper_or_collapse,
    threshold_search,
    verify_dichotomy,
)
from .semigroups import ElementSequence, finite_sets, naturals
from .verdicts import Verdict

SCHEMA_VERSION = 1
OUT_DIR_ENV = "SUMGAMES_OUT_DIR"

EXIT_OK = 0
EXIT_EXHAUSTED = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 3


class ConfigError(Exception):
    """Invalid run configuration; the message names the offending field."""


COMMANDS = (
    "search-hindman", "search-mt", "threshold", "proper-or-collapse",
    "verify-filter-laws", "chain-check", "play-game", "game-transfer",
    "cover-partition", "encode-classical", "verify-report",
)

_COMMON_KEYS = {"command", "seed", "out", "format", "node_limit", "parallelism",
                "horizon", "t", "s", "f"}
_KNOWN_KEYS = {
    "search-hindman": {"coloring", "m", "max_value"},
    "search-mt": {"edge_coloring", "vertex_coloring", "semigroup", "base", "m",
                  "d", "max_index", "chain"},
    "threshold": {"colors", "repeats", "max_value"},
    "proper-or-collapse": {"depth", "sequence", "runs"},
    "verify-filter-laws": {"ground"},
    "chain-check": {"chain", "depth", "window", "delta"},
    "play-game": {"alice", "bob", "rounds", "mode", "target"},
    "game-transfer": {"which", "n", "rounds", "picks"},
    "cover-partition": {"instance", "truncation", "edge_coloring",
                        "vertex_coloring", "m", "d", "target", "max_index"},
    "encode-classical": {"truncation"},
    "verify-report": {"input"},
}

_DEFAULTS = {
    "seed": 0,
    "format": "json-lines",
    "node_limit": 10 ** 7,
    "parallelism": 1,
    "horizon": 16,
    "t": 2,
    "s": 2,
    "f": 2,
}


@dataclass
class RunConfig:
    command: str
    options: dict = field(default_factory=dict)

    def get(self, key: str, default=None):
        return self.options.get(key, default)

    def __getitem__(self, key: str):
        return self.options[key]

    def budget(self) -> SearchBudget:
        return SearchBudget(
            max_value=int(self.get("max_value", 0)),
            max_index=int(self.get("max_index", 0)),
            node_limit=int(self.get("node_limit")),
        )

    def to_dict(self) -> dict:
        # the output path is where the report goes, not part of what ran
        opts = {k: v for k, v in self.options.items() if k != "out"}
        return {"command": self.command, **opts}


def _reject_duplicates(pairs):
    seen = set()
    out = {}
    for k, v in pairs:
        if k in seen:
            raise ConfigError(f"duplicate key: {k}")
        seen.add(k)
        out[k] = v
    return out


def parse_config(source) -> RunConfig:
    """Validate a config (JSON text or dict): known keys only, defaults
    applied, obvious range errors rejected with the field named."""
    if isinstance(source, str):
        try:
            data = json.loads(source, object_pairs_hook=_reject_duplicates)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    else:
        data = dict(source)
    if not isinstance(data, dict):
        raise ConfigError("config must be an object")
    command = data.get("command")
    if command not in COMMANDS:
        raise ConfigError(f"command: unknown or missing (got {command!r})")
    allowed = _COMMON_KEYS | _KNOWN_KEYS[command]
    for key in data:
        if key not in allowed:
            raise ConfigError(f"{key}: unknown key for {command}")
    options = {k: v for k, v in data.items() if k != "command"}
    for key, value in _DEFAULTS.items():
        options.setdefault(key, value)
    for key in ("node_limit", "horizon", "t", "s", "f"):
        if _config_int(key, options[key]) < 1:
            raise ConfigError(f"{key}: must be positive")
    # Kept as a key so that every report written so far still parses.
    if options["parallelism"] != 1:
        raise ConfigError("parallelism: searches run sequentially; only 1 is accepted")
    for key in ("coloring", "edge_coloring", "vertex_coloring"):
        desc = options.get(key)
        if desc is not None and _config_int(f"{key}.k", desc.get("k", 1)) < 1:
            raise ConfigError(f"{key}.k: palette size must be >= 1")
    return RunConfig(command=command, options=options)


def _config_int(name: str, value) -> int:
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: expected an integer, got {value!r}") from exc


# ---------------------------------------------------------------------------
# instance builders
# ---------------------------------------------------------------------------

def _coloring(config: RunConfig, key: str, d_default: int = 1,
              required: bool = True) -> Optional[Coloring]:
    desc = config.get(key)
    if desc is None:
        if required:
            raise ConfigError(f"{key}: missing coloring descriptor")
        return None
    desc = dict(desc)
    desc.setdefault("d", d_default)
    desc.setdefault("seed", config.get("seed"))
    try:
        return coloring_from_descriptor(desc)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _base_sequence(config: RunConfig):
    sg_name = config.get("semigroup", "naturals")
    base_name = config.get("base", "powers-of-two")
    if sg_name == "naturals":
        sg = naturals()
        if base_name != "powers-of-two":
            raise ConfigError("base: naturals supports 'powers-of-two'")
        return sg, ElementSequence.from_fn(sg, lambda i: 2 ** (i - 1))
    if sg_name == "finite-sets":
        sg = finite_sets()
        if base_name != "singletons":
            raise ConfigError("base: finite-sets supports 'singletons'")
        return sg, ElementSequence.from_fn(sg, lambda i: frozenset({i}))
    raise ConfigError(f"semigroup: unknown kind {sg_name!r}")


def _sequence_from_descriptor(desc: dict, depth: int, seed: int) -> ElementSequence:
    import random

    kind = desc.get("kind")
    if kind == "powers-of-two":
        return ElementSequence.from_fn(naturals(), lambda i: 2 ** (i - 1))
    if kind == "random-finite-sets":
        gen_max = int(desc.get("gen_max", 6))
        rng = random.Random(seed)
        terms = [frozenset(rng.sample(range(1, gen_max + 1),
                                      rng.randint(1, max(1, gen_max // 2))))
                 for _ in range(depth)]
        return ElementSequence.from_terms(finite_sets(), terms)
    if kind == "literal":
        sg_name = desc.get("semigroup", "naturals")
        terms = desc.get("terms", [])
        if sg_name == "naturals":
            return ElementSequence.from_terms(naturals(), [int(x) for x in terms])
        return ElementSequence.from_terms(
            finite_sets(), [frozenset(int(v) for v in x) for x in terms])
    raise ConfigError(f"sequence.kind: unknown kind {kind!r}")


def _chain_from_name(name: str, config: RunConfig):
    if name in (None, "none"):
        return None
    if name == "fs-tails-pow2":
        return fs_tail_chain(ElementSequence.from_fn(naturals(), lambda i: 2 ** (i - 1)))
    if name == "fs-tails-singletons":
        return fs_tail_chain(ElementSequence.from_fn(finite_sets(), lambda i: frozenset({i})))
    if name == "ap":
        return build_constrained_chain(lambda i: i, lambda n: ap_family(lambda i: i, n))
    if name == "density":
        delta = Fraction(config.get("delta", "1/3"))
        return build_constrained_chain(
            lambda i: i,
            lambda n: density_family(lambda i: i, delta - Fraction(1, n + 4)))
    raise ConfigError(f"chain: unknown chain {name!r}")


_TARGETS = {"op": CoverKind.OP, "asc": CoverKind.ASC, "lambda": CoverKind.LAMBDA,
            "omega": CoverKind.OMEGA, "gamma": CoverKind.GAMMA}


# ---------------------------------------------------------------------------
# command runners (each returns exit_code, result dict)
# ---------------------------------------------------------------------------

def _run_search_hindman(config: RunConfig):
    chi = _coloring(config, "coloring", d_default=1)
    out = hindman_search(chi, int(config["m"]), config.budget())
    if isinstance(out, Witness):
        return EXIT_OK, {"witness": out.to_record(),
                         "fs_values": sorted(out.certificate["fs_values"])}
    return EXIT_EXHAUSTED, {"exhausted": {"complete": out.complete, "nodes": out.nodes}}


def _run_search_mt(config: RunConfig):
    sg, base = _base_sequence(config)
    d = int(config.get("d", 2))
    chi_e = _coloring(config, "edge_coloring", d_default=d)
    chi_v = _coloring(config, "vertex_coloring", d_default=1, required=False)
    chain = _chain_from_name(config.get("chain"), config)
    out = mt_search(chi_e, sg, base, int(config["m"]), d, config.budget(),
                    chain=chain, chi_vertex=chi_v)
    if isinstance(out, Witness):
        return EXIT_OK, {"witness": out.to_record()}
    return EXIT_EXHAUSTED, {"exhausted": {"complete": out.complete, "nodes": out.nodes}}


def _run_threshold(config: RunConfig):
    budget = SearchBudget(max_value=int(config.get("max_value", 64)),
                          node_limit=int(config.get("node_limit")))
    report = threshold_search(int(config.get("colors", 2)),
                              allow_repeats=bool(config.get("repeats", True)),
                              budget=budget)
    result = {
        "found": report.found,
        "n": report.n,
        "avoider": {str(k): v for k, v in (report.avoider or {}).items()},
        "confirmed_independent": report.confirmed_independent,
        "note": report.note,
    }
    return (EXIT_OK if report.found else EXIT_EXHAUSTED), result


def _run_proper_or_collapse(config: RunConfig):
    depth = int(config.get("depth", 4))
    runs = int(config.get("runs", 1))
    seed = int(config.get("seed"))
    desc = config.get("sequence", {"kind": "random-finite-sets"})
    outputs = []
    worst = EXIT_OK
    for r in range(runs):
        seq = _sequence_from_descriptor(desc, depth, seed + r)
        out = proper_or_collapse(seq, depth)
        ok = verify_dichotomy(out, seq)
        if isinstance(out, Proper):
            rec = {"verdict": "proper", "blocks": [sorted(b) for b in out.blocks],
                   "reverified": ok}
        elif isinstance(out, Collapse):
            rec = {"verdict": "collapse", "element": sorted(out.element),
                   "blocks": [sorted(b) for b in out.blocks], "reverified": ok}
        else:
            rec = {"verdict": "unknown-at-depth", "nodes": out.nodes,
                   "reverified": ok}
            worst = max(worst, EXIT_UNKNOWN)
        if not ok:
            worst = EXIT_EXHAUSTED
        outputs.append(rec)
    return worst, {"runs": outputs}


def _run_verify_filter_laws(config: RunConfig):
    report = verify_duality_laws(int(config.get("ground", 3)))
    code = EXIT_OK if report.total_violations == 0 else EXIT_EXHAUSTED
    return code, {
        "families_scanned": report.families_scanned,
        "lines": [{"law": l.law_id, "instances": l.instances,
                   "violations": l.violations} for l in report.lines],
        "caveats": report.caveats,
    }


def _run_chain_check(config: RunConfig):
    chain = _chain_from_name(config.get("chain", "fs-tails-pow2"), config)
    if chain is None:
        raise ConfigError("chain: required for chain-check")
    report = chain_check(chain, int(config.get("depth", 3)),
                         window=int(config.get("window", 4)))
    result = {
        "verdict": report.verdict.value,
        "idem_witness_m": {str(k): v for k, v in report.idem_witness_m.items()},
        "descending_failures": len(report.descending_failures),
        "freeness_failures": len(report.freeness_failures),
        "notes": report.notes,
    }
    code = {Verdict.HOLDS: EXIT_OK, Verdict.FAILS: EXIT_EXHAUSTED,
            Verdict.UNKNOWN: EXIT_UNKNOWN}[report.verdict]
    return code, result


def _tail(n: int) -> SSet:
    return SSet.cofinite(range(n))


def _alice_from_name(name: str, seed: int, horizon: int) -> Strategy:
    import random

    if name == "intervals":
        from .games import CoverMove

        return scripted_alice([CoverMove(tuple(SSet.interval(0, i)
                                               for i in range(1, horizon + 4)))])
    if name == "dual-random":
        rng = random.Random(seed)

        def move(history):
            drop = frozenset(rng.sample(range(0, 2 * horizon), rng.randint(0, 3)))
            return SetMove(SSet.cofinite(drop))

        return Strategy("alice", move)
    raise ConfigError(f"alice: unknown strategy {name!r}")


def _bob_from_name(name: str):
    from .games import first_bob

    if name == "first":
        return first_bob()
    if name == "filter":
        return filter_intersection_bob(_tail)
    raise ConfigError(f"bob: unknown strategy {name!r}")


def _run_play_game(config: RunConfig):
    horizon = int(config.get("horizon"))
    rounds = int(config.get("rounds", horizon))
    mode = Mode.GFIN if config.get("mode", "g1") == "gfin" else Mode.G1
    alice = _alice_from_name(config.get("alice", "dual-random"),
                             int(config.get("seed")), horizon)
    bob = _bob_from_name(config.get("bob", "filter"))
    t = play(alice, bob, rounds, mode)
    target_name = config.get("target", "meets-generators")
    if target_name == "meets-generators":
        target = meets_all_generators(_tail, min(horizon, rounds))
        outcome = judge(t, target, horizon=horizon)
    else:
        kind = _TARGETS.get(target_name)
        if kind is None:
            raise ConfigError(f"target: unknown target {target_name!r}")
        outcome = judge(t, kind, horizon=horizon, space=Space.naturals(),
                        t=int(config.get("t")), s=int(config.get("s")),
                        f=int(config.get("f")))
    result = {
        "rounds_played": len(t.rounds),
        "illegal": None if t.illegal is None else {
            "round": t.illegal.round_index, "offender": t.illegal.offender},
        "outcome": outcome.value,
        "rounds": [{"alice": repr(getattr(r.alice, "sset", None)
                                  or getattr(r.alice, "sets", None)),
                    "bob": repr(r.bob)} for r in t.rounds],
        "selections": [repr(x) for x in t.selections()],
    }
    code = {Outcome.BOB_WINS: EXIT_OK, Outcome.ALICE_WINS: EXIT_EXHAUSTED,
            Outcome.UNKNOWN: EXIT_UNKNOWN}[outcome]
    return code, result


def _run_game_transfer(config: RunConfig):
    import random

    which = config.get("which", "gfin-to-g1")
    horizon = int(config.get("horizon"))
    seed = int(config.get("seed"))
    if which == "gfin-to-g1":
        from .games import CoverMove

        inner = scripted_alice([CoverMove(tuple(SSet.interval(0, i)
                                                for i in range(1, 4 * horizon + 8)))])
        conv = convert_gfin_to_g1(inner)
        rng = random.Random(seed)

        def bob_move(history, move):
            k = rng.randint(1, min(3, len(move.sets)))
            return tuple(move.sets[:k])

        t = play(conv.as_strategy(), Strategy("bob", bob_move),
                 int(config.get("rounds", horizon)), Mode.GFIN)
        points = Space.naturals().points_up_to(horizon)
        union_mult = point_multiplicity(t.selections(), points)
        collapsed = conv.collapse_selections(t)
        col_mult = point_multiplicity(collapsed, points)
        t_param = int(config.get("t"))
        preserved = all(col_mult[p] >= t_param
                        for p in points if union_mult[p] >= t_param)
        result = {
            "which": which,
            "legal": t.illegal is None,
            "multiplicity_preserved": preserved,
            "collapsed_count": len(collapsed),
        }
        return (EXIT_OK if (t.illegal is None and preserved) else EXIT_EXHAUSTED), result
    if which == "diagonal":
        n = int(config.get("n", 2))
        space = Space.naturals()

        def tree(sigma):
            stretch = 1 + (len(sigma) % 2)
            return Cover(space, set_fn=lambda i, s=stretch: SSet.interval(0, s * i),
                         name=f"stretch-{stretch}")

        cover, extractor = diagonal_transfer(tree, n, space)
        asc = classify_cover(cover, CoverKind.ASC, horizon)
        picks = int(config.get("picks", 8))
        rec = extractor([cover.set_at(i) for i in range(1, picks + 1)])
        result = {
            "which": which,
            "diagonal_ascending": asc.value,
            "finite_to_one": rec.f_is_finite_to_one(),
            "surjective": rec.f_is_surjective(),
            "picks": len(rec.picks),
        }
        ok = asc is Verdict.HOLDS and rec.f_is_finite_to_one() and rec.f_is_surjective()
        return (EXIT_OK if ok else EXIT_EXHAUSTED), result
    raise ConfigError(f"which: unknown transfer {which!r}")


def _run_cover_partition(config: RunConfig):
    instance = config.get("instance", "initial-segments")
    d = int(config.get("d", 2))
    chi_e = _coloring(config, "edge_coloring", d_default=d)
    chi_v = _coloring(config, "vertex_coloring", d_default=1, required=False)
    target = _TARGETS.get(config.get("target", "lambda"))
    if target is None:
        raise ConfigError(f"target: unknown target {config.get('target')!r}")
    horizon = int(config.get("horizon"))
    params = {"t": int(config.get("t")), "s": int(config.get("s")),
              "f": int(config.get("f"))}
    if instance == "initial-segments":
        dc = initial_segment_covers(Space.naturals())
    elif instance == "cofinite":
        inst = encode_cofinite_example(int(config.get("truncation", 6)))
        dc = inst.dc
    else:
        raise ConfigError(f"instance: unknown instance {instance!r}")
    out = menger_mt_search(dc, chi_v, chi_e, int(config["m"]), d, target,
                           horizon, config.budget(), target_params=params)
    if isinstance(out, PartitionWitness):
        return EXIT_OK, {"witness": out.to_record()}
    return EXIT_EXHAUSTED, {"exhausted": {"complete": out.complete,
                                          "nodes": out.nodes, "note": out.note}}


def _run_encode_classical(config: RunConfig):
    t = int(config.get("truncation", 6))
    inst = encode_cofinite_example(t)
    iso_checks = []
    for F, H in ((frozenset({1}), frozenset({2})), (frozenset({1, 2}), frozenset({3}))):
        oF, oH = _o_union(inst, F), _o_union(inst, H)
        iso_checks.append(inst.decode_union(oF.union(oH)) == (F | H))
    lam = classify_cover(inst.cover, CoverKind.LAMBDA, horizon=min(t + 1, 9),
                         t=int(config.get("t")))
    escapes_ok = inst.dc.check_escapes(t) == []
    result = {
        "truncation": t,
        "isomorphism_checks": all(iso_checks),
        "lambda_classification": lam.value,
        "escapes_certified": escapes_ok,
    }
    ok = all(iso_checks) and lam is Verdict.HOLDS and escapes_ok
    return (EXIT_OK if ok else EXIT_EXHAUSTED), result


def _o_union(inst, F):
    out = None
    for n in sorted(F):
        out = inst.o_set(n) if out is None else out.union(inst.o_set(n))
    return out


def _run_verify_report(config: RunConfig):
    path = config.get("input")
    if not path or not os.path.exists(path):
        raise ConfigError("input: report file not found")
    bad = 0
    total = 0
    details = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            total += 1
            rec = json.loads(line)
            stored = rec.get("result")
            cfg = parse_config(rec.get("config", {}))
            code, regenerated = _RUNNERS[cfg.command](cfg)
            ok = regenerated == stored
            if not ok:
                bad += 1
            details.append({"line": line_no, "command": cfg.command, "matches": ok})
    result = {"records": total, "mismatches": bad, "details": details}
    return (EXIT_OK if bad == 0 else EXIT_EXHAUSTED), result


_RUNNERS = {
    "search-hindman": _run_search_hindman,
    "search-mt": _run_search_mt,
    "threshold": _run_threshold,
    "proper-or-collapse": _run_proper_or_collapse,
    "verify-filter-laws": _run_verify_filter_laws,
    "chain-check": _run_chain_check,
    "play-game": _run_play_game,
    "game-transfer": _run_game_transfer,
    "cover-partition": _run_cover_partition,
    "encode-classical": _run_encode_classical,
    "verify-report": _run_verify_report,
}


# ---------------------------------------------------------------------------
# report output
# ---------------------------------------------------------------------------

def _flatten(prefix: str, value, out: dict):
    if isinstance(value, dict):
        for k in sorted(value):
            _flatten(f"{prefix}.{k}" if prefix else str(k), value[k], out)
    elif isinstance(value, (list, tuple)):
        out[prefix] = json.dumps(value, sort_keys=True)
    else:
        out[prefix] = value


def format_report(records: list, fmt: str) -> str:
    if fmt == "json-lines":
        return "\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n"
    if fmt == "csv":
        rows = []
        for rec in records:
            flat: dict = {}
            _flatten("", rec, flat)
            rows.append(flat)
        headers = sorted({k for row in rows for k in row})
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=headers)
        writer.writeheader()
        writer.writerows(rows)
        return buf.getvalue()
    if fmt == "pretty":
        lines = []
        for rec in records:
            lines.append(f"== {rec['command']} (schema v{rec['schema_version']}) ==")
            flat: dict = {}
            _flatten("", rec["result"], flat)
            for k in sorted(flat):
                lines.append(f"  {k}: {flat[k]}")
        return "\n".join(lines) + "\n"
    raise ConfigError(f"format: unknown format {fmt!r}")


def dispatch(config: RunConfig) -> int:
    """Run one command, write its report, and return the exit status."""
    runner = _RUNNERS.get(config.command)
    if runner is None:
        raise ConfigError(f"command: no runner for {config.command!r}")
    code, result = runner(config)
    record = {
        "schema_version": SCHEMA_VERSION,
        "command": config.command,
        "config": config.to_dict(),
        "result": result,
        "exit": code,
    }
    text = format_report([record], config.get("format"))
    out_path = config.get("out")
    if out_path is None and os.environ.get(OUT_DIR_ENV):
        out_path = os.path.join(os.environ[OUT_DIR_ENV],
                                f"{config.command}.jsonl")
    if out_path:
        os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _parse_coloring_arg(text: str) -> dict:
    """Coloring flags accept JSON or the compact name:key=value,... form."""
    text = text.strip()
    if text.startswith("{"):
        return json.loads(text)
    parts = text.split(":")
    desc: dict = {"name": parts[0]}
    for part in parts[1:]:
        if "=" in part:
            k, v = part.split("=", 1)
            desc[k] = int(v)
        else:
            desc.setdefault("k", int(part))
    return desc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sumgames",
        description="finite-sums combinatorics, filter algebra and selection games")
    parser.add_argument("--config", help="JSON config file (flags override it)")
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--seed", type=int)
        p.add_argument("--out")
        p.add_argument("--format", choices=["json-lines", "csv", "pretty"])
        p.add_argument("--node-limit", type=int, dest="node_limit")
        p.add_argument("--horizon", type=int)
        p.add_argument("-t", type=int, dest="t")
        p.add_argument("-s", type=int, dest="s")
        p.add_argument("-f", type=int, dest="f")

    p = sub.add_parser("search-hindman", help="monochromatic finite-sums search")
    common(p)
    p.add_argument("--coloring", type=_parse_coloring_arg)
    p.add_argument("--m", type=int)
    p.add_argument("--max-value", type=int, dest="max_value")

    p = sub.add_parser("search-mt", help="monochromatic sum-graph search")
    common(p)
    p.add_argument("--edge-coloring", type=_parse_coloring_arg, dest="edge_coloring")
    p.add_argument("--vertex-coloring", type=_parse_coloring_arg, dest="vertex_coloring")
    p.add_argument("--semigroup", choices=["naturals", "finite-sets"])
    p.add_argument("--base", choices=["powers-of-two", "singletons"])
    p.add_argument("--m", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--max-index", type=int, dest="max_index")
    p.add_argument("--chain")

    p = sub.add_parser("threshold", help="least N forcing monochromatic {x,y,x+y}")
    common(p)
    p.add_argument("--colors", type=int)
    p.add_argument("--repeats", action="store_true", default=None)
    p.add_argument("--no-repeats", action="store_false", dest="repeats", default=None)
    p.add_argument("--max-value", type=int, dest="max_value")

    p = sub.add_parser("proper-or-collapse", help="dichotomy certificates")
    common(p)
    p.add_argument("--depth", type=int)
    p.add_argument("--runs", type=int)
    p.add_argument("--sequence", type=json.loads)

    p = sub.add_parser("verify-filter-laws", help="exhaustive duality-law scan")
    common(p)
    p.add_argument("--ground", type=int)

    p = sub.add_parser("chain-check", help="verify a symbolic chain")
    common(p)
    p.add_argument("--chain")
    p.add_argument("--depth", type=int)
    p.add_argument("--window", type=int)
    p.add_argument("--delta")

    p = sub.add_parser("play-game", help="referee a selection game")
    common(p)
    p.add_argument("--alice")
    p.add_argument("--bob")
    p.add_argument("--rounds", type=int)
    p.add_argument("--mode", choices=["g1", "gfin"])
    p.add_argument("--target")

    p = sub.add_parser("game-transfer", help="strategy transfer replays")
    common(p)
    p.add_argument("--which", choices=["gfin-to-g1", "diagonal"])
    p.add_argument("--n", type=int)
    p.add_argument("--rounds", type=int)
    p.add_argument("--picks", type=int)

    p = sub.add_parser("cover-partition", help="monochromatic cover partition search")
    common(p)
    p.add_argument("--instance", choices=["initial-segments", "cofinite"])
    p.add_argument("--truncation", type=int)
    p.add_argument("--edge-coloring", type=_parse_coloring_arg, dest="edge_coloring")
    p.add_argument("--vertex-coloring", type=_parse_coloring_arg, dest="vertex_coloring")
    p.add_argument("--m", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--target")
    p.add_argument("--max-index", type=int, dest="max_index")

    p = sub.add_parser("encode-classical", help="the cofinite-sets encoding")
    common(p)
    p.add_argument("--truncation", type=int)

    p = sub.add_parser("verify-report", help="re-check a report file")
    common(p)
    p.add_argument("--input")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit:
        return EXIT_USAGE
    data: dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                data = json.loads(fh.read(), object_pairs_hook=_reject_duplicates)
        except (OSError, json.JSONDecodeError, ConfigError) as exc:
            sys.stderr.write(f"config error: {exc}\n")
            return EXIT_USAGE
    if args.command:
        data["command"] = args.command
    for key, value in vars(args).items():
        if key in ("config", "command") or value is None:
            continue
        data[key] = value
    try:
        config = parse_config(data)
        return dispatch(config)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
