"""Command-line entry point: wires config descriptors to the searches,
games and verification suites, and emits reproducible reports.

Reports are JSON lines, one result object per line, each carrying the
schema version, the full input config, and the certificates needed to
re-check the result.  All randomness flows from the single config seed, so
a fixed seed gives byte-identical reports.

``verify-report`` re-derives each record whole: its exit code and result
come from its command's certifier where the record holds a certificate,
and the record that ``dispatch`` would write for them, ``exit``,
``command``, ``config`` and ``schema_version`` included, must equal the
line as JSON, each int a plain int.  The certificates are the witness of
search-hindman, search-mt and cover-partition, the avoider and refutation
of a found threshold, the avoider of every threshold record that found
none, and the blocks of each proper-or-collapse run.  A
certifier reads the result's object from the record, checks it with the
checker of its kind from ``check.py``, runs no search, and encodes it again as
the runner does.  So it proves the recorded claim, but not that the
witness is the first one in search order.  Every other record is re-run,
as is every record under ``rerun``: exhaustions, thresholds found
without a certificate, dichotomy runs left unknown at depth, and the
commands of ``_RERUN_ONLY``.

Exit codes: 0 witness found / verified, 1 exhausted / failed,
2 unknown at depth, 3 usage error.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, NamedTuple, Optional

from .check import (
    verify_avoider,
    verify_hindman_witness,
    verify_mt_witness,
    verify_partition_witness,
    verify_refutation,
)
from .coloring import (
    Coloring,
    cardinality_coloring,
    constant_coloring,
    mod_coloring,
    parity_coloring,
    seeded_hash_coloring,
)
from .covers import Cover, CoverKind, SSet, Space, classify_cover
from .filters import chain_check, fs_tail_chain, verify_duality_laws
from .games import (
    CoverMove,
    Mode,
    Outcome,
    Strategy,
    SetMove,
    collapse_selections,
    convert_gfin_to_g1,
    diagonal_transfer,
    filter_intersection_bob,
    first_bob,
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
    DichotomyUnknown,
    Proper,
    SearchBudget,
    ThresholdReport,
    Witness,
    hindman_search,
    mt_search,
    proper_or_collapse,
    threshold_search,
    verify_dichotomy,
)
from .semigroups import (
    BlockSequence,
    ElementSequence,
    SumgamesError,
    finite_sets,
    naturals,
    sum_hypergraph,
)
from .verdicts import Verdict

SCHEMA_VERSION = 1
OUT_DIR_ENV = "SUMGAMES_OUT_DIR"

EXIT_OK = 0
EXIT_EXHAUSTED = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 3


class ConfigError(Exception):
    """Invalid run configuration; the message names the offending field."""


# ---------------------------------------------------------------------------
# config schema
# ---------------------------------------------------------------------------

class Key(NamedTuple):
    """A config key.  ``parse(name, value)`` turns a flag's text or a JSON
    value into the plain JSON value that the report records and the runner
    reads, or raises ConfigError naming the key.  A default of ... marks a
    required key.  The key's flag is ``dashes`` plus the key with dashes;
    None leaves the key to config files."""

    parse: Callable
    default: Any = None
    dashes: Optional[str] = "--"


def _integer(low: Optional[int] = None, high: Optional[int] = None) -> Callable:
    def parse(name, value):
        try:
            if isinstance(value, bool) or not isinstance(value, (int, str)):
                raise ValueError
            n = int(value)
        except ValueError:
            raise ConfigError(f"{name}: expected an integer, got {value!r}") from None
        if (low is not None and n < low) or (high is not None and n > high):
            bounds = f">= {low}" if high is None else f"in {low}..{high}"
            raise ConfigError(f"{name}: must be {bounds}, got {n}")
        return n
    return parse


def _boolean(name, value):
    if not isinstance(value, bool):
        raise ConfigError(f"{name}: expected true or false, got {value!r}")
    return value


def _text(name, value):
    if not isinstance(value, str):
        raise ConfigError(f"{name}: expected a string, got {value!r}")
    return value


def _choice(*names) -> Callable:
    def parse(name, value):
        if value not in names:
            raise ConfigError(f"{name}: expected one of "
                              f"{', '.join(map(str, names))}; got {value!r}")
        return value
    parse.choices = names
    return parse


def _fraction(low: int, high: int) -> Callable:
    """A fraction such as "1/3" strictly between ``low`` and ``high``, kept
    as given."""
    def parse(name, value):
        try:
            q = Fraction(value)
        except (TypeError, ValueError, ArithmeticError):
            raise ConfigError(f"{name}: expected a fraction, got {value!r}") from None
        if not low < q < high:
            raise ConfigError(f"{name}: must lie strictly between {low} and {high}, "
                              f"got {value}")
        return value
    return parse


class _RepeatedKey(Exception):
    """An object of the JSON text gives a key twice."""


def _unrepeated(pairs: list) -> dict:
    out = dict(pairs)
    if len(out) < len(pairs):
        raise _RepeatedKey
    return out


def _load_json(text: str, name: Optional[str] = None):
    """The value of a config, JSON flag or report line ``text``, refusing a
    key given twice in an object by its path from ``name``, as in
    ``coloring.k: given twice``, or as ``duplicate key: k`` with no name.

    The parser builds each object as a dict and stops at a repeated key;
    only then is the text read again as (key, value) pairs, to name the
    first repeat in document order by its path."""
    try:
        try:
            return json.loads(text, object_pairs_hook=_unrepeated)
        except _RepeatedKey:
            # the repeat may come before a syntax error, which still wins
            value = json.loads(text, object_pairs_hook=tuple)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{name or 'config'}: not valid JSON: {exc}") from exc
    return _unique_keys(value, name)


def _unique_keys(value, path: Optional[str]):
    if isinstance(value, tuple):  # an object's (key, value) pairs
        out = {}
        for k, v in value:
            if k in out:
                raise ConfigError(f"duplicate key: {k}" if path is None
                                  else f"{path}.{k}: given twice")
            out[k] = _unique_keys(v, k if path is None else f"{path}.{k}")
        return out
    if isinstance(value, list):
        return [_unique_keys(v, path) for v in value]
    return value


# each coloring's keys besides "name", and its builder, given the command's
# arity d, the config's seed and those keys (a descriptor's seed wins)
_COLORING_KEYS = {
    "constant": (("k", "color"), lambda d, seed, k=1, color=1: constant_coloring(d, k, color)),
    "parity": ((), lambda d, seed: parity_coloring(d)),
    "mod-k": (("k",), lambda d, seed, k: mod_coloring(k, d)),
    "cardinality": ((), lambda d, seed: cardinality_coloring(d)),
    "seeded-hash-k": (("k", "seed"), lambda d, seed, k: seeded_hash_coloring(k, seed, d)),
}


def _coloring_descriptor(name, value):
    """A coloring descriptor: an object, its JSON text, or the compact
    text name[:k][:key=value]...  A key that the named coloring does not
    read is rejected, so that a report records only what ran."""
    if isinstance(value, str):
        text = value.strip()
        if text.startswith("{"):
            value = _load_json(text, name)
        else:
            parts = text.split(":")
            value = {"name": parts[0]}
            for part in parts[1:]:
                k, sep, v = part.partition("=")
                if not sep:
                    k, v = "k", part
                if k in value:
                    raise ConfigError(f"{name}.{k}: given twice")
                value[k] = v
    if not isinstance(value, dict) or not isinstance(value.get("name"), str):
        raise ConfigError(f"{name}: expected a coloring descriptor with a name, "
                          f"got {value!r}")
    coloring = _choice(*_COLORING_KEYS)(f"{name}.name", value["name"])
    for key in value:
        if key != "name" and key not in _COLORING_KEYS[coloring][0]:
            raise ConfigError(f"{name}.{key}: not read by {coloring}")
    # a name ending in -k has no default palette size
    if coloring.endswith("-k") and "k" not in value:
        raise ConfigError(f"{name}: {coloring} needs a palette size 'k'")
    value = {k: v if k == "name" else _integer()(f"{name}.{k}", v)
             for k, v in value.items()}
    if value.get("k", 1) < 1:
        raise ConfigError(f"{name}.k: palette size must be >= 1")
    if "color" in value:
        _integer(1, value.get("k", 1))(f"{name}.color", value["color"])
    return value


_SEMIGROUP_BASES = {"naturals": "powers-of-two", "finite-sets": "singletons"}
# the keys besides "kind" that each kind of sequence reads
_SEQUENCE_KEYS = {"powers-of-two": (), "random-finite-sets": ("gen_max",),
                  "literal": ("semigroup", "terms")}


def _sequence_descriptor(name, value):
    """A sequence descriptor: an object or its JSON text.  Literal terms are
    integers >= 1 over the naturals and nonempty lists of them over finite
    sets, so that every term lies in its semigroup.  A key that the kind
    does not read is rejected, so that a report records only what ran."""
    if isinstance(value, str):
        value = _load_json(value, name)
    if not isinstance(value, dict):
        raise ConfigError(f"{name}: expected a sequence descriptor, got {value!r}")
    kind = _choice(*_SEQUENCE_KEYS)(f"{name}.kind", value.get("kind"))
    for key in value:
        if key != "kind" and key not in _SEQUENCE_KEYS[kind]:
            raise ConfigError(f"{name}.{key}: not read by kind {kind}")
    value = dict(value)
    if "gen_max" in value:
        # each of the depth terms samples up to gen_max / 2 points: 10^4
        # takes 0.02 s a run, and 10^6 took 1 s and 215 MB
        value["gen_max"] = _integer(1, 10 ** 4)(f"{name}.gen_max", value["gen_max"])
    semigroup = _choice(*_SEMIGROUP_BASES)(f"{name}.semigroup",
                                           value.get("semigroup", "naturals"))
    if "terms" in value:
        item = (_integer(1) if semigroup == "naturals"
                else _list_of(_integer(1), nonempty=True))
        value["terms"] = _list_of(item)(f"{name}.terms", value["terms"])
    return value


def _list_of(item: Callable, nonempty: bool = False) -> Callable:
    def parse(name, value):
        if not isinstance(value, list) or (nonempty and not value):
            kind = "a nonempty list" if nonempty else "a list"
            raise ConfigError(f"{name}: expected {kind}, got {value!r}")
        return [item(name, v) for v in value]
    return parse


_TARGETS = {"op": CoverKind.OP, "asc": CoverKind.ASC, "lambda": CoverKind.LAMBDA,
            "omega": CoverKind.OMEGA, "gamma": CoverKind.GAMMA}
_CHAINS = ("fs-tails-pow2", "fs-tails-singletons", "ap", "density")
_DENSITY_DELTA = "1/3"

# Keys of every command.  Their defaults are recorded in each report's
# config; the defaults of a command's own keys are supplied on read.
_COMMON = {
    "seed": Key(_integer(), 0),
    "out": Key(_text),
    "format": Key(_choice("json-lines", "csv", "pretty"), "json-lines"),
    "node_limit": Key(_integer(1), 10 ** 7),
    # searches run sequentially; the key stays so that earlier reports parse
    "parallelism": Key(_choice(1), 1, dashes=None),
    # read by no command: each command with a horizon has its own, bounded
    "horizon": Key(_integer(1), 16),
    "t": Key(_integer(1), 2, dashes="-"),
    # the omega check lists every set of up to s of the horizon's points: at
    # cover-partition's horizon bound 16, --target omega --m 10 takes 0.85 s
    # at 6, 1.6 s at 8 and 2.2 s at 16, and --horizon 24 -s 8 took 24 s
    "s": Key(_integer(1, 6), 2, dashes="-"),
    "f": Key(_integer(1), 2, dashes="-"),
}


@dataclass
class RunConfig:
    """A parsed config.  ``options`` holds the given keys and the recorded
    defaults, which is what a report records; any other key of the command
    reads as its default."""

    command: str
    options: dict = field(default_factory=dict)

    def __getitem__(self, key: str):
        if key in self.options:
            return self.options[key]
        return _COMMANDS[self.command].keys[key].default

    def to_dict(self) -> dict:
        # the output path is where the report goes, not part of what ran
        opts = {k: v for k, v in self.options.items() if k != "out"}
        return {"command": self.command, **opts}


def parse_config(source) -> RunConfig:
    """Validate a config (JSON text or dict) against its command's keys:
    known keys only, each value parsed, required keys present and the
    recorded defaults applied."""
    if isinstance(source, str):
        source = _load_json(source)
    if not isinstance(source, dict):
        raise ConfigError("config must be an object")
    command = source.get("command")
    if not isinstance(command, str) or command not in _COMMANDS:
        raise ConfigError(f"command: unknown or missing (got {command!r})")
    keys = _COMMANDS[command].keys
    options = {}
    for key, value in source.items():
        if key == "command":
            continue
        if key not in keys:
            raise ConfigError(f"{key}: unknown key for {command}")
        # an optional key given as null is absent, and recorded as such
        if value is None and keys[key].default is None:
            continue
        options[key] = keys[key].parse(key, value)
    for key, spec in keys.items():
        if spec.default is ... and key not in options:
            raise ConfigError(f"{key}: required for {command}")
    for key, spec in _COMMON.items():
        if spec.default is not None:
            options.setdefault(key, spec.default)
    config = RunConfig(command=command, options=options)
    for key, (variant_key, variant) in _VARIANT_KEYS.get(command, {}).items():
        if key in options and config[variant_key] != variant:
            raise ConfigError(f"{key}: not read by {variant_key} {config[variant_key]}")
    return config


# ---------------------------------------------------------------------------
# instance builders
# ---------------------------------------------------------------------------

# colorings of the sum of their subject's elements, defined on integers only
_ARITHMETIC_COLORINGS = ("parity", "mod-k")


def _build_coloring(config: RunConfig, key: str, d: int,
                    sums: str = "integers") -> Optional[Coloring]:
    """The coloring under ``key``; ``sums`` says what the search's sums
    are, so that an arithmetic coloring of non-integer sums is rejected."""
    desc = config[key]
    if desc is None:
        return None
    if sums != "integers" and desc["name"] in _ARITHMETIC_COLORINGS:
        raise ConfigError(f"{key}: {desc['name']} needs integer sums, not {sums}")
    keys, build = _COLORING_KEYS[desc["name"]]
    return build(d, **{"seed": config["seed"], **{k: desc[k] for k in keys if k in desc}})


_NAMED_SEQUENCES = {
    "powers-of-two": lambda: ElementSequence.from_fn(naturals(), lambda i: 2 ** (i - 1)),
    "singletons": lambda: ElementSequence.from_fn(finite_sets(), lambda i: frozenset({i})),
}


def _base_sequence(config: RunConfig) -> ElementSequence:
    semigroup, base = config["semigroup"], _SEMIGROUP_BASES[config["semigroup"]]
    if config["base"] != base:
        raise ConfigError(f"base: {semigroup} supports '{base}'")
    return _NAMED_SEQUENCES[base]()


def _sequence_from_descriptor(desc: dict, depth: int, seed: int) -> ElementSequence:
    kind = desc["kind"]
    if kind == "powers-of-two":
        return _NAMED_SEQUENCES[kind]()
    if kind == "random-finite-sets":
        gen_max = desc.get("gen_max", 6)
        rng = random.Random(seed)
        terms = [frozenset(rng.sample(range(1, gen_max + 1),
                                      rng.randint(1, max(1, gen_max // 2))))
                 for _ in range(depth)]
        return ElementSequence.from_terms(finite_sets(), terms)
    terms = desc.get("terms", [])
    if desc.get("semigroup", "naturals") == "naturals":
        return ElementSequence.from_terms(naturals(), terms)
    return ElementSequence.from_terms(finite_sets(), [frozenset(x) for x in terms])


def _chain_from_name(name: Optional[str], delta: str):
    if name in (None, "none"):
        return None
    if name == "fs-tails-pow2":
        return fs_tail_chain(_NAMED_SEQUENCES["powers-of-two"]())
    if name == "fs-tails-singletons":
        return fs_tail_chain(_NAMED_SEQUENCES["singletons"]())
    if name == "ap":
        return build_constrained_chain(ap_family)
    delta = Fraction(delta)
    return build_constrained_chain(lambda n: density_family(delta - Fraction(1, n + 4)))


# ---------------------------------------------------------------------------
# command runners (each returns exit_code, result dict)
# ---------------------------------------------------------------------------

def _ints_only(value) -> bool:
    """True when every number in ``value``, through nested lists and dict
    values, is a plain int.  Python's == takes JSON's true and 1.0 for 1,
    and a certifier reads the numbers that it checks from the record, so
    it must refuse them where the program writes an int."""
    if isinstance(value, (list, dict)):
        return all(map(_ints_only, value.values() if isinstance(value, dict) else value))
    return not isinstance(value, (bool, float))


def _run_search_hindman(config: RunConfig):
    chi = _build_coloring(config, "coloring", 1)
    budget = SearchBudget(max_value=config["max_value"], node_limit=config["node_limit"])
    out = hindman_search(chi, config["m"], budget)
    if isinstance(out, Witness):
        return EXIT_OK, _hindman_result(out)
    return EXIT_EXHAUSTED, {"exhausted": out.to_record()}


def _hindman_result(w: Witness) -> dict:
    return {"witness": w.to_record(), "fs_values": sorted(w.certificate["fs_values"])}


def _certify_search_hindman(config: RunConfig, result: dict):
    """Terms a_1 < ... < a_m whose finite sums lie in {1..max_value}, are
    proper and have the witness's one color."""
    if "witness" not in result:
        return None
    m, record, fs_values = config["m"], result["witness"], result["fs_values"]
    w = Witness.from_record(record)
    terms = w.terms
    # verify_hindman_witness reads neither the blocks, {1}..{m}, nor the
    # edge color, none
    if not (_ints_only(result) and len(terms) == m and 0 < terms[0]
            and list(terms) == sorted(set(terms)) and max(fs_values) <= config["max_value"]
            and record["blocks"] == [[i] for i in range(1, m + 1)]
            and record["color_edge"] is None):
        return False
    w.certificate = {"fs_values": fs_values}
    chi = _build_coloring(config, "coloring", 1)
    return verify_hindman_witness(w, chi) and (EXIT_OK, _hindman_result(w))


def _mt_instance(config: RunConfig):
    """The base and colorings of a search-mt config: (sg, base, chi_e,
    chi_v, chain)."""
    base = _base_sequence(config)
    sums = "integers" if config["semigroup"] == "naturals" else "finite sets"
    return (base.semigroup, base, _build_coloring(config, "edge_coloring", config["d"], sums),
            _build_coloring(config, "vertex_coloring", 1, sums),
            _chain_from_name(config["chain"], _DENSITY_DELTA))


def _run_search_mt(config: RunConfig):
    sg, base, chi_e, chi_v, chain = _mt_instance(config)
    budget = SearchBudget(max_index=config["max_index"], node_limit=config["node_limit"])
    out = mt_search(chi_e, sg, base, config["m"], config["d"], budget,
                    chain=chain, chi_vertex=chi_v)
    if isinstance(out, Witness):
        return EXIT_OK, {"witness": out.to_record()}
    return EXIT_EXHAUSTED, {"exhausted": out.to_record()}


def _certify_search_mt(config: RunConfig, result: dict):
    """m blocks within max_index whose sums are the witness's terms: proper,
    with every d-chain's sum set of one edge color (and every finite sum of
    one vertex color), in the chain's sets where one is given."""
    if "witness" not in result:
        return None
    m, d = config["m"], config["d"]
    w = Witness.from_record(result["witness"])
    # checked before anything is built: m terms have 2^m - 1 sums, and the
    # base is built up to the largest index of a block
    if not (_ints_only(result) and len(w.blocks) == len(w.terms) == m
            and w.blocks.max_index <= config["max_index"]):
        return False
    sg, base, chi_e, chi_v, chain = _mt_instance(config)
    edge_sets = sum_hypergraph(ElementSequence.from_terms(sg, w.terms), m, d)
    w.certificate = {"edge_sets": edge_sets}
    return (verify_mt_witness(w, sg, base, chi_e, d, chi_vertex=chi_v, chain=chain)
            and (EXIT_OK, {"witness": w.to_record()}))


def _run_threshold(config: RunConfig):
    budget = SearchBudget(max_value=config["max_value"], node_limit=config["node_limit"])
    report = threshold_search(config["colors"], allow_repeats=config["repeats"],
                              budget=budget)
    return (EXIT_OK if report.found else EXIT_EXHAUSTED), report.to_record()


def _certify_threshold(config: RunConfig, result: dict):
    """A found threshold N: its avoider colors {1..N-1}, and its refutation
    shows that every coloring of {1..N} has a monochromatic triple.  A
    record of no threshold found: its avoider colors {1..d}, d = max_value
    unless the budget cut the run, so the threshold exceeds d.  Neither
    runs a search.  A found threshold with no certificate (unconfirmed,
    over ``search._MAX_REFUTATION`` or written before thresholds had one)
    is re-run."""
    k, max_value, repeats = config["colors"], config["max_value"], config["repeats"]
    report = ThresholdReport.from_record(result)
    # each case sets the fields that threshold_search writes for it
    if report.found is True and report.certificate is not None:
        n = report.n
        report.confirmed_independent, report.note = True, ""
        proved = (type(n) is int and 0 < n <= max_value
                  and verify_avoider(report.avoider, k, n - 1, repeats)
                  and verify_refutation(report.certificate, k, n, repeats))
    elif report.found is False:
        d = len(report.avoider)
        report.n, report.confirmed_independent, report.certificate = None, False, None
        report.note = (f"no threshold within {max_value}" if d == max_value
                       else f"budget exhausted at N={d + 1}; threshold > {d}")
        proved = d <= max_value and verify_avoider(report.avoider, k, d, repeats)
    else:
        return None
    return proved and ((EXIT_OK if report.found else EXIT_EXHAUSTED), report.to_record())


def _dichotomy_sequence(config: RunConfig, run: int) -> ElementSequence:
    return _sequence_from_descriptor(config["sequence"], config["depth"],
                                     config["seed"] + run)


def _dichotomy_result(runs: list) -> tuple:
    """The exit code and result of proper-or-collapse runs, each an
    outcome and whether verify_dichotomy accepted it."""
    worst = EXIT_OK
    for out, ok in runs:
        if isinstance(out, DichotomyUnknown):
            worst = max(worst, EXIT_UNKNOWN)
        if not ok:
            worst = EXIT_EXHAUSTED
    return worst, {"runs": [{**out.to_record(), "reverified": ok} for out, ok in runs]}


def _run_proper_or_collapse(config: RunConfig):
    runs = []
    for r in range(config["runs"]):
        seq = _dichotomy_sequence(config, r)
        out = proper_or_collapse(seq, config["depth"], SearchBudget(node_limit=config["node_limit"]))
        runs.append((out, verify_dichotomy(out, seq)))
    return _dichotomy_result(runs)


def _certify_proper_or_collapse(config: RunConfig, result: dict):
    """Per run, min(3, depth) blocks within depth whose sums are proper, or
    all equal to an idempotent element.  A run left unknown at depth has no
    certificate, and neither has a run that failed its recheck."""
    runs = result["runs"]
    if any(run["verdict"] == "unknown-at-depth" or run["reverified"] is not True
           for run in runs):
        return None
    depth = config["depth"]
    if len(runs) != config["runs"]:
        return False
    rebuilt = []
    for r, run in enumerate(runs):
        if not _ints_only([run["blocks"], run.get("element")]):
            return False
        blocks = BlockSequence(tuple(run["blocks"]))
        if len(blocks) != min(3, depth) or blocks.max_index > depth:
            return False
        seq = _dichotomy_sequence(config, r)
        out = (Proper.from_record(run, seq) if run["verdict"] == "proper"
               else Collapse.from_record(run))
        if not verify_dichotomy(out, seq):
            return False
        rebuilt.append((out, True))
    return _dichotomy_result(rebuilt)


def _run_verify_filter_laws(config: RunConfig):
    report = verify_duality_laws(config["ground"])
    code = EXIT_OK if report.total_violations == 0 else EXIT_EXHAUSTED
    return code, {
        "families_scanned": report.families_scanned,
        "lines": [{"law": l.law_id, "instances": l.instances,
                   "violations": l.violations} for l in report.lines],
        "caveats": report.caveats,
    }


def _run_chain_check(config: RunConfig):
    chain = _chain_from_name(config["chain"], config["delta"])
    try:
        report = chain_check(chain, config["depth"], window=config["window"])
    except ValueError as exc:
        if config["chain"] != "density":
            raise
        # the run that level n needs grows as delta nears 1 and n grows
        raise ConfigError(f"chain-check.delta: {config['delta']} is too close to 1 "
                          f"for depth {config['depth']}: {exc}") from None
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
    if name == "intervals":
        return scripted_alice([CoverMove(tuple(SSet.interval(0, i)
                                               for i in range(1, horizon + 4)))])
    rng = random.Random(seed)

    def move(history):
        drop = frozenset(rng.sample(range(0, 2 * horizon), rng.randint(0, 3)))
        return SetMove(SSet.cofinite(drop))

    return Strategy("alice", move)


def _run_play_game(config: RunConfig):
    if config["bob"] == "filter" and config["alice"] != "dual-random":
        # filter_intersection_bob intersects a set of points, which only
        # dual-random plays; intervals plays covers
        raise ConfigError("bob: filter needs alice dual-random, which plays sets of points")
    horizon = config["horizon"]
    rounds = horizon if config["rounds"] is None else config["rounds"]
    alice = _alice_from_name(config["alice"], config["seed"], horizon)
    bob = first_bob() if config["bob"] == "first" else filter_intersection_bob(_tail)
    mode = Mode(config["mode"])
    if mode is Mode.GFIN:
        # the stock Bobs pick one element; a finite selection holds that one
        bob = Strategy("bob", lambda history, a_move, pick=bob.move: (pick(history, a_move),))
    t = play(alice, bob, rounds, mode)
    if config["target"] == "meets-generators":
        target = meets_all_generators(_tail, min(horizon, rounds))
        outcome = judge(t, target, horizon=horizon)
    else:
        outcome = judge(t, _TARGETS[config["target"]], horizon=horizon,
                        space=Space.naturals(), t=config["t"], s=config["s"],
                        f=config["f"])
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
    which = config["which"]
    horizon = config["horizon"]
    if which == "gfin-to-g1":
        rounds = horizon if config["rounds"] is None else config["rounds"]
        # Bob takes at most 3 sets a round, so the cover outlasts every round
        size = 4 * max(horizon, rounds) + 7
        inner = scripted_alice([CoverMove(tuple(SSet.interval(0, i)
                                                for i in range(1, size + 1)))])
        rng = random.Random(config["seed"])

        def bob_move(history, move):
            k = rng.randint(1, min(3, len(move.sets)))
            return tuple(move.sets[:k])

        t = play(convert_gfin_to_g1(inner), Strategy("bob", bob_move), rounds, Mode.GFIN)
        points = Space.naturals().points_up_to(horizon)
        union_mult = point_multiplicity(t.selections(), points)
        collapsed = collapse_selections(t)
        col_mult = point_multiplicity(collapsed, points)
        t_param = config["t"]
        preserved = all(col_mult[p] >= t_param
                        for p in points if union_mult[p] >= t_param)
        result = {
            "which": which,
            "legal": t.illegal is None,
            "multiplicity_preserved": preserved,
            "collapsed_count": len(collapsed),
        }
        return (EXIT_OK if (t.illegal is None and preserved) else EXIT_EXHAUSTED), result
    space = Space.naturals()

    def tree(sigma):
        stretch = 1 + (len(sigma) % 2)
        return Cover(space, set_fn=lambda i, s=stretch: SSet.interval(0, s * i),
                     name=f"stretch-{stretch}")

    cover, extractor = diagonal_transfer(tree, config["n"], space)
    asc = classify_cover(cover, CoverKind.ASC, horizon)
    rec = extractor([cover.set_at(i) for i in range(1, config["picks"] + 1)])
    result = {
        "which": which,
        "diagonal_ascending": asc.value,
        "finite_to_one": rec.f_is_finite_to_one(),
        "surjective": rec.f_is_surjective(),
        "picks": len(rec.picks),
    }
    ok = asc is Verdict.HOLDS and rec.f_is_finite_to_one() and rec.f_is_surjective()
    return (EXIT_OK if ok else EXIT_EXHAUSTED), result


def _partition_instance(config: RunConfig):
    """The colorings, target parameters and covers of a cover-partition
    config: (chi_e, chi_v, params, dc)."""
    sums = "unions of cover members"
    chi_e = _build_coloring(config, "edge_coloring", config["d"], sums)
    chi_v = _build_coloring(config, "vertex_coloring", 1, sums)
    params = {"t": config["t"], "s": config["s"], "f": config["f"]}
    # menger_mt_search rejects this too, but the cofinite encoding it would
    # be given takes time exponential in the truncation to build
    if config["max_index"] < config["m"]:
        raise ConfigError("max_index must allow m rounds")
    if config["instance"] == "initial-segments":
        dc = initial_segment_covers(Space.naturals())
    else:
        dc = encode_cofinite_example(config["truncation"]).dc
    return chi_e, chi_v, params, dc


def _run_cover_partition(config: RunConfig):
    chi_e, chi_v, params, dc = _partition_instance(config)
    budget = SearchBudget(max_index=config["max_index"], node_limit=config["node_limit"])
    out = menger_mt_search(dc, chi_v, chi_e, config["m"], config["d"],
                           _TARGETS[config["target"]], config["horizon"], budget,
                           target_params=params)
    if isinstance(out, PartitionWitness):
        return EXIT_OK, {"witness": out.to_record()}
    # only this block search records its note, the best depth reached
    return EXIT_EXHAUSTED, {"exhausted": {**out.to_record(), "note": out.note}}


def _certify_cover_partition(config: RunConfig, result: dict):
    """m disjoint families of U_1-indices within max_index, the n-th drawn
    from U_n, whose unions hold the escape points gathered before them,
    are proper and monochromatic, and cover as the target asks."""
    if "witness" not in result:
        return None
    record = result["witness"]
    # checked before any set is read: an initial-segments cover builds
    # every set up to the largest index asked for
    families = record["families"]
    if not _ints_only(result) or len(families) != config["m"] or not all(
            0 < j <= config["max_index"] for fam in families for j in fam):
        return False
    chi_e, chi_v, params, dc = _partition_instance(config)
    w = PartitionWitness.from_record(record, dc)
    return (w.target is _TARGETS[config["target"]] and w.coverage is Verdict.HOLDS
            and verify_partition_witness(w, dc, chi_e, config["d"], chi_vertex=chi_v,
                                         horizon=config["horizon"], **params)
            and (EXIT_OK, {"witness": w.to_record()}))


def _run_encode_classical(config: RunConfig):
    t = config["truncation"]
    inst = encode_cofinite_example(t)
    iso_checks = []
    for F, H in ((frozenset({1}), frozenset({2})), (frozenset({1, 2}), frozenset({3}))):
        oF, oH = (functools.reduce(SSet.union, map(inst.o_set, sorted(B))) for B in (F, H))
        iso_checks.append(inst.decode_union(oF.union(oH)) == (F | H))
    lam = classify_cover(inst.cover, CoverKind.LAMBDA, horizon=min(t + 1, 9),
                         t=config["t"])
    escapes_ok = inst.dc.check_escapes(t) == []
    result = {
        "truncation": t,
        "isomorphism_checks": all(iso_checks),
        "lambda_classification": lam.value,
        "escapes_certified": escapes_ok,
    }
    ok = all(iso_checks) and lam is Verdict.HOLDS and escapes_ok
    return (EXIT_OK if ok else EXIT_EXHAUSTED), result


# What a certifier meets in a result that does not have the shape its
# runner writes: a missing key, a value of the wrong type, a block out of
# order, improper terms.
_MALFORMED = (LookupError, TypeError, ValueError, AttributeError, SumgamesError)


def _first_difference(record: dict, rebuilt: dict, path: str = "") -> Optional[str]:
    """The first key, in the order a report writes them, whose value differs
    between ``record`` and ``rebuilt``: its path through the objects that
    hold it, as in ``result.n``, and both values cut to 60 characters; None
    if there is none.  Values are compared as JSON text, which unlike ==
    tells 1, 1.0 and true apart."""
    for key in sorted(record.keys() | rebuilt.keys()):
        recorded, derived = (json.dumps(r[key], sort_keys=True) if key in r else "nothing"
                             for r in (record, rebuilt))
        if recorded == derived:
            continue
        if isinstance(record.get(key), dict) and isinstance(rebuilt.get(key), dict):
            return _first_difference(record[key], rebuilt[key], f"{path}{key}.")
        return f"{path}{key}: recorded {recorded:.60}, re-derived {derived:.60}"
    return None


def _recheck(line_no: int, line: str, rerun: bool) -> dict:
    """Check one report line.  Its exit code and result are rebuilt from
    its certificate where the record holds one and ``rerun`` is false, else
    by re-running its config, and the whole record that ``dispatch`` would
    write for them must equal the line's.  A line that cannot be checked,
    or that differs, is a mismatch, with the reason given."""
    entry = {"line": line_no, "command": None, "matches": False}
    try:
        rec = _load_json(line, "record")
        if not isinstance(rec, dict):
            raise ConfigError("record is not an object")
        if rec.get("schema_version") != SCHEMA_VERSION:
            raise ConfigError(f"schema_version: expected {SCHEMA_VERSION}, "
                              f"got {rec.get('schema_version')!r}")
        cfg = parse_config(rec.get("config", {}))
        entry["command"] = cfg.command
        command, result = _COMMANDS[cfg.command], rec.get("result")
        rebuilt = None
        if command.certify is not None and not rerun:
            try:
                rebuilt = command.certify(cfg, result)
            except _MALFORMED as exc:
                rebuilt = False
                entry["reason"] = f"malformed result: {type(exc).__name__}: {exc}"
        if rebuilt is None:
            code, regenerated = command.run(cfg)
            # a found threshold written before thresholds had certificates
            # makes the same claim as its re-run, which adds one
            if isinstance(result, dict) and "certificate" not in result:
                regenerated.pop("certificate", None)
            rebuilt = code, regenerated
        else:
            entry["certificate"] = True
        if rebuilt:
            record = _record(cfg, *rebuilt)
            # a line as the program writes it is its record's JSON text
            reason = (None if json.dumps(record, sort_keys=True) == line
                      else _first_difference(rec, record))
            if reason is None:
                entry["matches"] = True
            else:
                entry["reason"] = reason
    except (ConfigError, ValueError) as exc:
        entry["reason"] = str(exc)
    except Exception as exc:  # a record whose check raises is one mismatch
        entry["reason"] = f"check raised {type(exc).__name__}: {exc}"
    return entry


def _run_verify_report(config: RunConfig):
    path = config["input"]
    if not os.path.exists(path):
        raise ConfigError("input: report file not found")
    with open(path) as fh:
        details = [_recheck(line_no, line.strip(), config["rerun"])
                   for line_no, line in enumerate(fh, start=1) if line.strip()]
    bad = sum(not entry["matches"] for entry in details)
    result = {"records": len(details), "mismatches": bad, "details": details}
    # an input with no records verified nothing, which is no pass
    return (EXIT_OK if details and bad == 0 else EXIT_EXHAUSTED), result


class Command(NamedTuple):
    """A command: its runner, which returns (exit code, result), and its
    certifier, which checks a recorded result with its checker from
    ``check.py`` and no search.  A certifier returns None where the result
    holds no certificate, False where the check refutes it, and else the
    (exit code, result) that it rebuilds from the certificate with the
    runner's own encoder."""

    run: Callable
    help: str
    keys: dict
    certify: Optional[Callable] = None


def _command(run, help: str, certify=None, **keys) -> Command:
    return Command(run, help, {**_COMMON, **keys}, certify)


# The commands without a certifier, whose records verify-report checks only
# by re-running them, each with the reason.
_RERUN_ONLY = {
    "verify-filter-laws": "a claim about every family over the ground; no "
                          "certificate is cheaper than the scan",
    "chain-check": "failure counts over a window of the chain, which only the "
                   "scan of that window gives",
    "play-game": "a transcript and verdict, which only a replay of the game gives",
    "game-transfer": "flags computed from a replay of the transferred strategies",
    "encode-classical": "the outcomes of the encoding's own checks",
    "verify-report": "the check of another report file",
}


_D = Key(_integer(1), 2)
# search-mt folds its terms, all 2^max_index block sums of its base, before
# its first node and outside the node budget: over finite sets (peak RSS)
# 16 takes 0.1 s and 60 MB, 18 takes 0.7 s and 195 MB, and 20 takes 4.7 s
# and 769 MB
_MT_MAX_INDEX = Key(_integer(0, 16), 0)
_EDGE_COLORING = Key(_coloring_descriptor, ...)
_VERTEX_COLORING = Key(_coloring_descriptor)
# the cofinite encoding builds all 2^truncation points, and each O_n as
# 2^(truncation - 1) of them, before anything else (ROADMAP item 12): 14
# takes 0.06 s and 45 MB, 16 takes 0.4 s and 120 MB, and 20 took 9 s
_MAX_TRUNCATION = 14

# Keys that one variant of a command reads and the others ignore: for each
# command, key -> (the key that names the variant, the variant that reads it).
# Given to another variant, such a key is rejected, so that a report records
# only what ran.
_VARIANT_KEYS = {
    "chain-check": {"delta": ("chain", "density")},
    "game-transfer": {"n": ("which", "diagonal"), "picks": ("which", "diagonal"),
                      "rounds": ("which", "gfin-to-g1")},
    "cover-partition": {"truncation": ("instance", "cofinite")},
}

_COMMANDS = {
    "search-hindman": _command(
        _run_search_hindman, "monochromatic finite-sums search",
        certify=_certify_search_hindman,
        coloring=Key(_coloring_descriptor, ...),
        # each node and the witness check build the 2^m finite sums of the
        # terms, which node_limit does not count: 16 takes 0.3 s and 78 MB,
        # 17 takes 0.5 s and 140 MB, and 20 took 7.8 s and 1 GB
        m=Key(_integer(1, 16), ...),
        max_value=Key(_integer(0), 0)),
    "search-mt": _command(
        _run_search_mt, "monochromatic sum-graph search",
        certify=_certify_search_mt,
        edge_coloring=_EDGE_COLORING, vertex_coloring=_VERTEX_COLORING,
        semigroup=Key(_choice(*_SEMIGROUP_BASES), "naturals"),
        base=Key(_choice(*_NAMED_SEQUENCES), "powers-of-two"),
        # each node builds the 2^m sums and the d-chains of its prefix, and
        # the witness check reads the chain table of (m, d), which node_limit
        # does not count: with a constant coloring, 12 takes 0.2, 0.4 and
        # 0.6 s and 45, 68 and 82 MB at d = 2, 3 and 4, 13 takes 0.7, 1.3
        # and 2.1 s and 91, 164 and 242 MB, and 15 took 9.1 s and 745 MB
        # at d = 2
        m=Key(_integer(1, 12), ...),
        d=_D, max_index=_MT_MAX_INDEX, chain=Key(_choice("none", *_CHAINS))),
    "threshold": _command(
        _run_threshold, "least N forcing monochromatic {x,y,x+y}",
        certify=_certify_threshold,
        # lists of colors + 1 and max_value + 2 entries are built before the
        # first node, and each new depth copies a slice of the colors, so
        # max_value costs its square: 1024 takes 0.005 s, 4096 takes 0.04 s,
        # and 10^7 of either took 175 or 251 MB; node_limit bounds the rest:
        # --colors 4 --no-repeats at 1024 spends the default 10^7 nodes and
        # ends "budget exhausted at N=56" in 6.2 s (median of 5 runs on 2
        # vCPUs), and --colors 4 at 64 finds N=45 in 2,981,636 nodes and 3.7 s
        colors=Key(_integer(1, 64), 2), repeats=Key(_boolean, True),
        max_value=Key(_integer(0, 1024), 64)),
    "proper-or-collapse": _command(
        _run_proper_or_collapse, "dichotomy certificates",
        certify=_certify_proper_or_collapse,
        # node_limit caps each run alone, and a run whose first blocks lead
        # nowhere tries about 2^depth third blocks: 16 runs over 1, 1, 1, ...
        # take 1.2 s at depth 15, 2.3 s at 16, and 32 runs took 1.9 s at 15;
        # --depth 1000000 took 4.4 s to build its terms
        depth=Key(_integer(2, 15), 4), runs=Key(_integer(1, 16), 1),
        sequence=Key(_sequence_descriptor, {"kind": "random-finite-sets"})),
    "verify-filter-laws": _command(
        _run_verify_filter_laws, "exhaustive duality-law scan",
        ground=Key(_integer(1, 4), 3)),
    "chain-check": _command(
        _run_chain_check, "verify a symbolic chain",
        chain=Key(_choice(*_CHAINS), "fs-tails-pow2"),
        # the ap chain samples progressions of length depth + 2, and
        # partition._AP_WINDOW = 64 bounds them, so 63 cannot be checked; at 62
        # every chain takes under 0.05 s at window 4, and density took 1.6 s
        # at depth 500
        depth=Key(_integer(1, 62), 3),
        # each absorption check tries window links for each of window sampled
        # members: at depth 62, 1024 takes 1 s (fs-tails-singletons), 2048
        # took 1.8 s (fs-tails-pow2), and 100,000 ran over 30 s
        window=Key(_integer(1, 1024), 4), delta=Key(_fraction(0, 1), _DENSITY_DELTA)),
    "play-game": _command(
        _run_play_game, "referee a selection game",
        alice=Key(_choice("intervals", "dual-random"), "dual-random"),
        bob=Key(_choice("first", "filter"), "filter"),
        # defaults to the horizon; no budget counts the replay: 256 rounds
        # at horizon 256 take 0.13 s (1 s against --alice intervals, whose
        # covers the report writes out), 3,000 took 0.64 s and 20,000 22.8 s
        rounds=Key(_integer(1, 256)),
        mode=Key(_choice("g1", "gfin"), "g1"),
        target=Key(_choice("meets-generators", *_TARGETS), "meets-generators"),
        # no budget counts the judge's reads of the horizon's sets:
        # --rounds 800 --horizon 800 took 5 s, 256 and 256 take 0.2 s
        horizon=Key(_integer(1, 256), 16)),
    "game-transfer": _command(
        _run_game_transfer, "strategy transfer replays",
        which=Key(_choice("gfin-to-g1", "diagonal"), "gfin-to-g1"),
        # the diagonal cover intersects the sets of 1 + n + ... + n^n tree
        # covers, 3,906 at n = 5 (0.9 s at horizon 32); the replay reads no
        # set past games._COVER_BOUND, so more picks than that add nothing
        n=Key(_integer(0, 4), 2), picks=Key(_integer(1, 32), 8),
        # defaults to the horizon; the gfin-to-g1 cover grows with it, and no
        # budget counts the replay, so it is bounded as the horizon is
        rounds=Key(_integer(1, 32)),
        # no budget counts the horizon's sets that either variant reads:
        # the diagonal at n = 4 takes 0.06 s at 32 and 0.16 s at 64, and
        # gfin-to-g1 4 s at 256 and minutes at 1024
        horizon=Key(_integer(1, 32), 16)),
    "cover-partition": _command(
        _run_cover_partition, "monochromatic cover partition search",
        certify=_certify_cover_partition,
        instance=Key(_choice("initial-segments", "cofinite"), "initial-segments"),
        truncation=Key(_integer(1, _MAX_TRUNCATION), 6), edge_coloring=_EDGE_COLORING,
        vertex_coloring=_VERTEX_COLORING,
        # each node and the witness check build the 2^m unions and about 3^m
        # chains of the prefix, which node_limit does not count (--target op
        # --max-index 64): 10 takes 0.2 s, 11 takes 1 s, and 12 took 3.7 s
        m=Key(_integer(1, 10), ...), d=_D,
        target=Key(_choice(*_TARGETS), "lambda"),
        # initial segments build every interval up to max_index, on four
        # cover levels, before the first node: 256 takes 0.1 s and 27 MB,
        # 1000 takes 0.26 s and 120 MB, and 3000 took 2.2 s and 1.1 GB
        max_index=Key(_integer(0, 256), 0),
        # classify_cover reads the horizon's points, outside node_limit, and
        # omega lists their sets of up to s points: with -s 6 --m 10, 16 takes
        # 0.45 s and 20 took 1.75 s.  gamma, which drops a prefix once a
        # point lies outside more than f of its unions, finds its witness at
        # node 4,105 in 0.3 s at 16 and spends 100,000 nodes in 0.7 s at 100,000
        horizon=Key(_integer(1, 16), 16)),
    "encode-classical": _command(
        _run_encode_classical, "the cofinite-sets encoding",
        truncation=Key(_integer(3, _MAX_TRUNCATION), 6)),
    "verify-report": _command(
        _run_verify_report, "re-check a report file",
        input=Key(_text, ...), rerun=Key(_boolean, False)),
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


def _record(config: RunConfig, code: int, result) -> dict:
    """The report record of a run of ``config``."""
    return {"schema_version": SCHEMA_VERSION, "command": config.command,
            "config": config.to_dict(), "result": result, "exit": code}


def dispatch(config: RunConfig) -> int:
    """Run one command, write its report, and return the exit status."""
    code, result = _COMMANDS[config.command].run(config)
    text = format_report([_record(config, code, result)], config["format"])
    out_path = config["out"]
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

def build_parser() -> argparse.ArgumentParser:
    """One subcommand per command and one flag per config key: ``--max-index``
    sets ``max_index``.  Flags keep their text; parse_config parses it.  A
    flag must be spelled out in full: an abbreviation would set whichever
    key it happens to prefix, as ``--s`` would set ``seed``."""
    parser = argparse.ArgumentParser(
        prog="sumgames", allow_abbrev=False,
        description="finite-sums combinatorics, filter algebra and selection games")
    parser.add_argument("--config", help="JSON config file (flags override it)")
    sub = parser.add_subparsers(dest="command")
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help, allow_abbrev=False)
        for key, spec in command.keys.items():
            if spec.dashes is None:
                continue
            flag = spec.dashes + key.replace("_", "-")
            if spec.parse is _boolean:
                p.add_argument(flag, action="store_true", default=None)
                p.add_argument(f"--no-{key}", action="store_false", dest=key,
                               default=None)
                continue
            choices = getattr(spec.parse, "choices", None)
            p.add_argument(flag, dest=key,
                           metavar="{%s}" % ",".join(choices) if choices else None)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit:
        return EXIT_USAGE
    try:
        data = {}
        if args.config:
            with open(args.config) as fh:
                data = _load_json(fh.read())
            if not isinstance(data, dict):
                raise ConfigError("config must be an object")
        data.update((key, value) for key, value in vars(args).items()
                    if key != "config" and value is not None)
        return dispatch(parse_config(data))
    # ValueError: a runner or search rejected an input the schema let through;
    # OSError: a config, input or output file could not be read or written
    except (ConfigError, ValueError, OSError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
