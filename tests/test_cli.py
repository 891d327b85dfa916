"""Config parsing, dispatch, report formats, exit codes, verify-report."""
import argparse
import json
import shlex

import pytest

from sumgames import cli, search
from sumgames.cli import (
    EXIT_EXHAUSTED,
    EXIT_OK,
    EXIT_UNKNOWN,
    EXIT_USAGE,
    ConfigError,
    dispatch,
    format_report,
    main,
    parse_config,
)
from sumgames.coloring import seeded_hash_coloring


def run_config(tmp_path, data, name="report.jsonl"):
    out = tmp_path / name
    cfg = parse_config({**data, "out": str(out)})
    code = dispatch(cfg)
    lines = [json.loads(l) for l in out.read_text().splitlines() if l.strip()]
    return code, lines


# ---------------------------------------------------------------- parsing

def test_defaults_applied():
    cfg = parse_config({"command": "search-hindman", "coloring": {"name": "parity"},
                        "m": 2, "max_value": 8})
    assert cfg["horizon"] == 16
    assert cfg["t"] == 2 and cfg["s"] == 2 and cfg["f"] == 2
    assert cfg["node_limit"] == 10 ** 7


def test_an_optional_key_given_as_null_records_as_omitted(tmp_path):
    # one run, one report: the null is not recorded as a value
    null = _report(tmp_path, {"command": "play-game", "rounds": None}, name="null.jsonl")
    omitted = _report(tmp_path, {"command": "play-game"}, name="omitted.jsonl")
    assert null.read_bytes() == omitted.read_bytes()


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="wat"):
        parse_config({"command": "threshold", "wat": 1})


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config('{"command": "threshold", "colors": 2, "colors": 3}')


def test_zero_palette_rejected():
    with pytest.raises(ConfigError, match="palette"):
        parse_config({"command": "search-hindman", "m": 2, "max_value": 8,
                      "coloring": {"name": "mod-k", "k": 0}})


def test_parallelism_only_one():
    # The key stays in the schema so that earlier reports still parse.
    cfg = parse_config({"command": "threshold", "parallelism": 1})
    assert cfg["parallelism"] == 1
    with pytest.raises(ConfigError, match="parallelism"):
        parse_config({"command": "threshold", "parallelism": 4})


def test_unknown_command_rejected():
    with pytest.raises(ConfigError, match="command"):
        parse_config({"command": "fly"})


# ---------------------------------------------------------------- dispatch

def test_threshold_dispatch(tmp_path):
    code, recs = run_config(tmp_path, {"command": "threshold", "colors": 2,
                                       "repeats": True})
    assert code == EXIT_OK
    assert recs[0]["result"]["n"] == 5
    assert recs[0]["result"]["avoider"] == {"1": 1, "2": 2, "3": 2, "4": 1}
    assert recs[0]["result"]["confirmed_independent"]
    assert recs[0]["schema_version"] == 1


def test_verify_filter_laws_dispatch(tmp_path):
    code, recs = run_config(tmp_path, {"command": "verify-filter-laws", "ground": 3})
    assert code == EXIT_OK
    assert recs[0]["result"]["families_scanned"] == 256
    assert all(l["violations"] == 0 for l in recs[0]["result"]["lines"])


# The report of each ground as the per-family scan wrote it, byte for byte.
FILTER_LAWS = {
    1: (
        '{"command": "verify-filter-laws", "config": {"command": '
        '"verify-filter-laws", "f": 2, "format": "json-lines", "ground": '
        '1, "horizon": 16, "node_limit": 10000000, "parallelism": 1, '
        '"s": 2, "seed": 0, "t": 2}, "exit": 0, "result": {"caveats": '
        '["freeness and \'all members infinite\' are unverifiable on a '
        'finite ground; law 3 quantifies over all filters, law 4 over '
        'nonempty (2,3)-superfilters excluding the empty set"], '
        '"families_scanned": 4, "lines": [{"instances": 9, "law": '
        '"law-1", "violations": 0}, {"instances": 4, "law": "law-2", '
        '"violations": 0}, {"instances": 1, "law": "law-3", '
        '"violations": 0}, {"instances": 1, "law": "law-4", '
        '"violations": 0}, {"instances": 1, "law": "law-5", '
        '"violations": 0}, {"instances": 1, "law": "law-6", '
        '"violations": 0}]}, "schema_version": 1}'
    ),
    2: (
        '{"command": "verify-filter-laws", "config": {"command": '
        '"verify-filter-laws", "f": 2, "format": "json-lines", "ground": '
        '2, "horizon": 16, "node_limit": 10000000, "parallelism": 1, '
        '"s": 2, "seed": 0, "t": 2}, "exit": 0, "result": {"caveats": '
        '["freeness and \'all members infinite\' are unverifiable on a '
        'finite ground; law 3 quantifies over all filters, law 4 over '
        'nonempty (2,3)-superfilters excluding the empty set"], '
        '"families_scanned": 16, "lines": [{"instances": 81, "law": '
        '"law-1", "violations": 0}, {"instances": 16, "law": "law-2", '
        '"violations": 0}, {"instances": 3, "law": "law-3", '
        '"violations": 0}, {"instances": 3, "law": "law-4", '
        '"violations": 0}, {"instances": 11, "law": "law-5", '
        '"violations": 0}, {"instances": 2, "law": "law-6", '
        '"violations": 0}]}, "schema_version": 1}'
    ),
    3: (
        '{"command": "verify-filter-laws", "config": {"command": '
        '"verify-filter-laws", "f": 2, "format": "json-lines", "ground": '
        '3, "horizon": 16, "node_limit": 10000000, "parallelism": 1, '
        '"s": 2, "seed": 0, "t": 2}, "exit": 0, "result": {"caveats": '
        '["freeness and \'all members infinite\' are unverifiable on a '
        'finite ground; law 3 quantifies over all filters, law 4 over '
        'nonempty (2,3)-superfilters excluding the empty set"], '
        '"families_scanned": 256, "lines": [{"instances": 6561, "law": '
        '"law-1", "violations": 0}, {"instances": 256, "law": "law-2", '
        '"violations": 0}, {"instances": 7, "law": "law-3", '
        '"violations": 0}, {"instances": 7, "law": "law-4", '
        '"violations": 0}, {"instances": 91, "law": "law-5", '
        '"violations": 0}, {"instances": 3, "law": "law-6", '
        '"violations": 0}]}, "schema_version": 1}'
    ),
    4: (
        '{"command": "verify-filter-laws", "config": {"command": '
        '"verify-filter-laws", "f": 2, "format": "json-lines", "ground": 4, '
        '"horizon": 16, "node_limit": 10000000, "parallelism": 1, "s": 2, '
        '"seed": 0, "t": 2}, "exit": 0, "result": {"caveats": ["freeness and '
        "'all members infinite' are unverifiable on a finite ground; law 3 "
        'quantifies over all filters, law 4 over nonempty (2,3)-superfilters '
        'excluding the empty set", "law 1 checked on covering pairs (equivalent '
        'by transitivity)"], "families_scanned": 65536, "lines": [{"instances": '
        '524288, "law": "law-1", "violations": 0}, {"instances": 65536, "law": '
        '"law-2", "violations": 0}, {"instances": 15, "law": "law-3", '
        '"violations": 0}, {"instances": 15, "law": "law-4", "violations": 0}, '
        '{"instances": 671, "law": "law-5", "violations": 0}, {"instances": 4, '
        '"law": "law-6", "violations": 0}]}, "schema_version": 1}'
    ),
}


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_verify_filter_laws_pinned(tmp_path, g):
    out = tmp_path / f"laws{g}.jsonl"
    assert main(["verify-filter-laws", "--ground", str(g), "--out", str(out)]) == EXIT_OK
    assert out.read_text() == FILTER_LAWS[g] + "\n"
    code, recs = run_config(tmp_path, {"command": "verify-report", "input": str(out)},
                            name="v.jsonl")
    assert code == EXIT_OK
    assert recs[0]["result"]["records"] == 1
    assert recs[0]["result"]["mismatches"] == 0


def test_hindman_dispatch_witness(tmp_path):
    code, recs = run_config(tmp_path, {
        "command": "search-hindman", "coloring": {"name": "parity"},
        "m": 2, "max_value": 7})
    assert code == EXIT_OK
    assert recs[0]["result"]["witness"]["terms"] == [2, 4]


def test_hindman_dispatch_exhausted(tmp_path):
    code, recs = run_config(tmp_path, {
        "command": "search-hindman", "coloring": {"name": "seeded-hash-k", "k": 2},
        "seed": 1, "m": 4, "max_value": 5})
    assert code == EXIT_EXHAUSTED
    assert recs[0]["result"]["exhausted"]["complete"]


def test_proper_or_collapse_dispatch(tmp_path):
    code, recs = run_config(tmp_path, {
        "command": "proper-or-collapse", "depth": 5, "runs": 4, "seed": 9,
        "sequence": {"kind": "random-finite-sets", "gen_max": 6}})
    assert code in (EXIT_OK, EXIT_UNKNOWN)
    assert all(r["reverified"] for r in recs[0]["result"]["runs"])


def test_proper_or_collapse_obeys_node_limit(tmp_path):
    code, recs = run_config(tmp_path, {
        "command": "proper-or-collapse", "depth": 5, "runs": 2, "seed": 1,
        "node_limit": 1})
    assert code == EXIT_UNKNOWN
    assert recs[0]["result"]["runs"] == [
        {"verdict": "unknown-at-depth", "nodes": 1, "reverified": True}] * 2
    verify_code, result = _verify(tmp_path, tmp_path / "report.jsonl")
    assert verify_code == EXIT_OK and result["details"][0]["matches"] is True


def test_play_game_dispatch(tmp_path):
    code, recs = run_config(tmp_path, {
        "command": "play-game", "alice": "dual-random", "bob": "filter",
        "rounds": 8, "horizon": 8, "seed": 3})
    assert code == EXIT_OK
    assert recs[0]["result"]["outcome"] == "bob-wins"
    assert recs[0]["result"]["illegal"] is None


def test_gfin_to_g1_cover_outlasts_every_round(tmp_path):
    # Bob takes up to 3 sets a round; a cover sized from the horizon alone
    # ran out here, and the converted Alice's "cover exhausted" was recorded
    # as her illegal move
    code, recs = run_config(tmp_path, {
        "command": "game-transfer", "which": "gfin-to-g1", "horizon": 4, "rounds": 32})
    assert code == EXIT_OK
    assert recs[0]["result"]["legal"] is True
    assert recs[0]["result"]["collapsed_count"] == 32


def test_game_transfer_dispatch(tmp_path):
    code, recs = run_config(tmp_path, {
        "command": "game-transfer", "which": "diagonal", "n": 2,
        "horizon": 8, "picks": 8})
    assert code == EXIT_OK
    assert recs[0]["result"]["finite_to_one"]
    assert recs[0]["result"]["surjective"]


def test_cover_partition_dispatch(tmp_path):
    code, recs = run_config(tmp_path, {
        "command": "cover-partition", "instance": "initial-segments",
        "edge_coloring": {"name": "constant"}, "m": 2, "d": 2,
        "target": "op", "horizon": 2, "max_index": 8})
    assert code == EXIT_OK
    assert recs[0]["result"]["witness"]["families"] == [[1], [2]]


def test_encode_classical_dispatch(tmp_path):
    code, recs = run_config(tmp_path, {"command": "encode-classical",
                                       "truncation": 5})
    assert code == EXIT_OK
    assert recs[0]["result"]["isomorphism_checks"]
    assert recs[0]["result"]["escapes_certified"]


def test_chain_check_dispatch(tmp_path):
    code, recs = run_config(tmp_path, {"command": "chain-check",
                                       "chain": "fs-tails-pow2", "depth": 3})
    assert code == EXIT_OK
    assert recs[0]["result"]["verdict"] == "holds"


# ---------------------------------------------------------------- reports

def test_reports_deterministic(tmp_path):
    data = {"command": "search-mt", "edge_coloring": {"name": "seeded-hash-k", "k": 2},
            "semigroup": "naturals", "base": "powers-of-two",
            "m": 2, "d": 2, "max_index": 6, "seed": 12}
    _, first = run_config(tmp_path, data, name="a.jsonl")
    _, second = run_config(tmp_path, data, name="b.jsonl")
    assert first == second
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


def test_csv_and_pretty_formats():
    record = {"schema_version": 1, "command": "threshold",
              "config": {"command": "threshold"},
              "result": {"n": 5, "avoider": {"1": 1}}, "exit": 0}
    csv_text = format_report([record], "csv")
    assert "result.n" in csv_text.splitlines()[0]
    pretty = format_report([record], "pretty")
    assert "== threshold" in pretty
    with pytest.raises(ConfigError):
        format_report([record], "xml")


def test_verify_report_roundtrip(tmp_path):
    _, _ = run_config(tmp_path, {"command": "threshold", "colors": 2,
                                 "repeats": True}, name="t.jsonl")
    code, recs = run_config(tmp_path, {"command": "verify-report",
                                       "input": str(tmp_path / "t.jsonl")},
                            name="v.jsonl")
    assert code == EXIT_OK
    assert recs[0]["result"]["mismatches"] == 0


def test_verify_report_catches_tampering(tmp_path):
    _, _ = run_config(tmp_path, {"command": "threshold", "colors": 2,
                                 "repeats": True}, name="t.jsonl")
    path = tmp_path / "t.jsonl"
    rec = json.loads(path.read_text())
    rec["result"]["n"] = 4
    path.write_text(json.dumps(rec) + "\n")
    code, recs = run_config(tmp_path, {"command": "verify-report",
                                       "input": str(path)}, name="v.jsonl")
    assert code == EXIT_EXHAUSTED
    assert recs[0]["result"]["mismatches"] == 1


def _set_config(line, key, value):
    rec = json.loads(line)
    rec["config"][key] = value
    return json.dumps(rec)


@pytest.mark.parametrize("tamper, reason", [
    (lambda line: line[:-1], "Expecting"),
    (lambda line: _set_config(line, "command", "fly"), "command: unknown"),
    (lambda line: _set_config(line, "colors", "two"), "colors: expected an integer"),
    # the last of two values used to win, so this line matched
    (lambda line: line.replace('"config": {', '"config": {"colors": 99, ', 1),
     "config.colors: given twice"),
], ids=["not-json", "unknown-command", "non-integer-field", "duplicate-key"])
def test_verify_report_counts_a_bad_line_and_goes_on(tmp_path, tamper, reason):
    run_config(tmp_path, {"command": "threshold", "colors": 2, "repeats": True},
               name="t.jsonl")
    path = tmp_path / "t.jsonl"
    line = path.read_text().strip()
    path.write_text(f"{tamper(line)}\n{line}\n")
    code, recs = run_config(tmp_path, {"command": "verify-report",
                                       "input": str(path)}, name="v.jsonl")
    assert code == EXIT_EXHAUSTED
    result = recs[0]["result"]
    assert result["records"] == 2 and result["mismatches"] == 1
    bad, good = result["details"]
    assert bad["matches"] is False and reason in bad["reason"]
    assert good == {"line": 2, "command": "threshold", "matches": True, "certificate": True}


def test_verify_report_counts_a_raising_rerun_and_goes_on(tmp_path):
    # judge() rejects a lambda target for dual-random Alice, whose Bob
    # selects points, with a TypeError, which once stopped verify-report
    # with a traceback
    run_config(tmp_path, {"command": "play-game", "rounds": 4, "horizon": 4},
               name="g.jsonl")
    path = tmp_path / "g.jsonl"
    line = path.read_text().strip()
    path.write_text(f"{_set_config(line, 'target', 'lambda')}\n{line}\n")
    code, recs = run_config(tmp_path, {"command": "verify-report",
                                       "input": str(path)}, name="v.jsonl")
    assert code == EXIT_EXHAUSTED
    result = recs[0]["result"]
    assert result["records"] == 2 and result["mismatches"] == 1
    bad, good = result["details"]
    assert bad["matches"] is False and bad["command"] == "play-game"
    assert bad["reason"].startswith("check raised TypeError: ")
    assert good == {"line": 2, "command": "play-game", "matches": True}


def _verify(tmp_path, path, rerun=False):
    code, recs = run_config(tmp_path, {"command": "verify-report", "input": str(path),
                                       "rerun": rerun}, name="verify.jsonl")
    return code, recs[0]["result"]


def _report(tmp_path, config, name="r.jsonl"):
    run_config(tmp_path, config, name=name)
    return tmp_path / name


_MT_README = {"command": "search-mt",
              "edge_coloring": {"name": "seeded-hash-k", "k": 2, "seed": 4},
              "semigroup": "finite-sets", "base": "singletons", "m": 3, "d": 2,
              "max_index": 8}
_NO_THRESHOLD_40 = {"command": "threshold", "colors": 4, "repeats": True, "max_value": 40}
_NO_THRESHOLD_4 = {"command": "threshold", "colors": 2, "max_value": 4}
_FOUND_THRESHOLD = {"command": "threshold", "colors": 2, "repeats": True}
# cut by its budget at depth 10: "budget exhausted at N=11; threshold > 10"
_CUT_THRESHOLD = {"command": "threshold", "colors": 3, "repeats": True, "node_limit": 100}
_HINDMAN_README = {"command": "search-hindman", "coloring": {"name": "parity"}, "m": 2,
                   "max_value": 7}
_COVER_OP = {"command": "cover-partition", "instance": "initial-segments",
             "edge_coloring": {"name": "constant"}, "m": 2, "d": 2, "target": "op",
             "horizon": 2, "max_index": 8}
_POC_LITERAL = {"command": "proper-or-collapse", "depth": 5, "runs": 1,
                "sequence": {"kind": "literal", "terms": [1, 2, 3, 4, 5]}}

# Configs whose records carry a certificate: every certified command, both
# dichotomy verdicts and both cover-partition instances
CERTIFIED = [
    _MT_README,
    {"command": "search-mt", "seed": 3, "edge_coloring": {"name": "seeded-hash-k", "k": 2},
     "vertex_coloring": {"name": "parity"}, "m": 2, "d": 2, "max_index": 6,
     "chain": "fs-tails-pow2"},
    _NO_THRESHOLD_40,
    _CUT_THRESHOLD,
    {"command": "search-hindman", "coloring": {"name": "mod-k", "k": 3}, "m": 3,
     "max_value": 60},
    {"command": "proper-or-collapse", "depth": 5, "runs": 10, "seed": 1},
    {"command": "proper-or-collapse", "depth": 4, "runs": 6, "seed": 2,
     "sequence": {"kind": "literal", "semigroup": "finite-sets",
                  "terms": [[1], [1], [1], [1]]}},
    _POC_LITERAL,
    {"command": "cover-partition", "instance": "cofinite", "truncation": 6,
     "edge_coloring": {"name": "constant"}, "m": 2, "d": 2, "target": "op",
     "horizon": 1, "max_index": 6},
    {"command": "cover-partition", "instance": "initial-segments", "seed": 1,
     "edge_coloring": {"name": "seeded-hash-k", "k": 2}, "m": 3, "d": 2,
     "target": "lambda", "horizon": 6, "max_index": 9},
    # the README's found thresholds, certified by their refutations
    _FOUND_THRESHOLD, {"command": "threshold", "colors": 3, "repeats": False},
]


def test_certified_records_verify_without_any_search(tmp_path, monkeypatch):
    lines = [_report(tmp_path, config).read_text().strip() for config in CERTIFIED]
    path = tmp_path / "all.jsonl"
    path.write_text("\n".join(lines) + "\n")

    def no_search(*args, **kwargs):
        raise RuntimeError("a certified record ran a search")

    for name in ("hindman_search", "mt_search", "threshold_search",
                 "proper_or_collapse", "menger_mt_search"):
        monkeypatch.setattr(cli, name, no_search)
    code, result = _verify(tmp_path, path)
    assert code == EXIT_OK and result["mismatches"] == 0
    assert all(d["certificate"] is True and d["matches"] for d in result["details"])
    # a collapse is certified too, not only proper runs
    assert '"collapse"' in lines[6]


def _set_result(path, change):
    rec = json.loads(path.read_text())
    change(rec["result"])
    path.write_text(json.dumps(rec) + "\n")


def _set_avoider(result, value, color):
    result["avoider"][value] = color


def _lookalike(values, key, like=float):
    """Replace an int by a value that Python's == takes for it: its float,
    or JSON's true for 1 (``like=bool``)."""
    assert like is float or values[key] == 1
    values[key] = like(values[key])


@pytest.mark.parametrize("config, change", [
    # the last block of the least witness, {3, 4, 6, 8}, becomes {3, 4, 6}
    (_MT_README, lambda r: r["witness"]["blocks"][2].remove(8)),
    # colors 1 and 2 alike: 1 + 1 = 2 is a monochromatic triple
    (_NO_THRESHOLD_40, lambda r: _set_avoider(r, "2", r["avoider"]["1"])),
    # a cut run's avoider: recolored into a triple, or one value short of
    # the depth its note claims, or the note's depth raised
    (_CUT_THRESHOLD, lambda r: _set_avoider(r, "2", r["avoider"]["1"])),
    (_CUT_THRESHOLD, lambda r: r["avoider"].pop("10")),
    (_CUT_THRESHOLD, lambda r: r.__setitem__("note", "budget exhausted at N=12; threshold > 11")),
    (_HINDMAN_README, lambda r: r["witness"]["terms"].__setitem__(1, 6)),
    # blocks and an edge color that no Hindman witness has
    (_HINDMAN_README, lambda r: r["witness"].__setitem__("blocks", [[1], [3]])),
    (_HINDMAN_README, lambda r: r["witness"].__setitem__("color_edge", 1)),
    (_COVER_OP, lambda r: r["witness"]["families"].__setitem__(1, [3])),
    # blocks {1}, {2}, {3, 4} become {1}, {2}, {3}: 1 + 2 = 3 is improper
    (_POC_LITERAL, lambda r: r["runs"][0]["blocks"].__setitem__(2, [3])),
    # a found threshold: its refutation cut short, made for N + 1 = 6 (the
    # avoider of {1..5} is then one value short), or holding a JSON true
    (_FOUND_THRESHOLD, lambda r: r["certificate"].pop()),
    (_FOUND_THRESHOLD, lambda r: r.__setitem__("n", 6)),
    (_FOUND_THRESHOLD, lambda r: _lookalike(r["certificate"], 0, bool)),
    # ints that Python's == takes for the ones the program wrote
    (_NO_THRESHOLD_4, lambda r: _lookalike(r["avoider"], "1", bool)),
    (_NO_THRESHOLD_4, lambda r: _lookalike(r["avoider"], "1")),
    (_NO_THRESHOLD_4, lambda r: r.__setitem__("confirmed_independent", 0)),
    (_FOUND_THRESHOLD, lambda r: _lookalike(r, "n")),
    (_HINDMAN_README, lambda r: (_lookalike(r["witness"]["terms"], 0),
                                 _lookalike(r["fs_values"], 0))),
    (_HINDMAN_README, lambda r: _lookalike(r["witness"], "color_vertex", bool)),
    (_HINDMAN_README, lambda r: _lookalike(r["witness"], "certificate_size")),
    (_MT_README, lambda r: (_lookalike(r["witness"]["blocks"][0], 0),
                            _lookalike(r["witness"]["terms"][0], 0))),
    (_MT_README, lambda r: _lookalike(r["witness"], "color_edge")),
    (_POC_LITERAL, lambda r: _lookalike(r["runs"][0]["blocks"][0], 0, bool)),
    (_COVER_OP, lambda r: _lookalike(r["witness"]["index_blocks"][0], 0)),
    (_COVER_OP, lambda r: _lookalike(r["witness"], "color_edge", bool)),
], ids=["mt-block", "avoider-color", "cut-avoider-color", "cut-avoider-short",
        "cut-note-depth", "hindman-term", "hindman-blocks",
        "hindman-color-edge", "family-index", "dichotomy-block",
        "refutation-cut", "refutation-for-n-plus-1", "refutation-true",
        "avoider-true", "avoider-float", "confirmed-zero", "threshold-n-float",
        "hindman-float-terms", "hindman-color-true", "hindman-size-float",
        "mt-float-block-and-term", "mt-color-float", "dichotomy-block-true",
        "family-block-float", "family-color-true"])
def test_verify_report_certificate_catches_tampering(tmp_path, config, change):
    path = _report(tmp_path, config)
    code, result = _verify(tmp_path, path)
    assert code == EXIT_OK and result["details"][0]["certificate"] is True
    _set_result(path, change)
    for rerun in (False, True):
        code, result = _verify(tmp_path, path, rerun=rerun)
        assert code == EXIT_EXHAUSTED and result["mismatches"] == 1
        assert ("certificate" in result["details"][0]) == (not rerun)


@pytest.mark.parametrize("config, change", [
    (_MT_README, lambda r: r["witness"].__setitem__("blocks", "x")),
    (_MT_README, lambda r: r["witness"].pop("terms")),
    (_NO_THRESHOLD_40, lambda r: _set_avoider(r, "x", 1)),
    (_POC_LITERAL, lambda r: r["runs"][0]["blocks"].__setitem__(1, [1])),
], ids=["blocks-not-a-list", "terms-missing", "avoider-value-not-a-number",
        "blocks-out-of-order"])
def test_verify_report_malformed_certificate_is_a_mismatch(tmp_path, config, change):
    path = _report(tmp_path, config)
    _set_result(path, change)
    code, result = _verify(tmp_path, path)
    assert code == EXIT_EXHAUSTED and result["mismatches"] == 1
    entry = result["details"][0]
    assert entry["matches"] is False and entry["certificate"] is True
    assert entry["reason"].startswith("malformed result: ")


def test_every_command_has_a_certifier_or_is_rerun_only():
    for name, command in cli._COMMANDS.items():
        assert (command.certify is None) == (name in cli._RERUN_ONLY), name
    assert set(cli._RERUN_ONLY) <= set(cli._COMMANDS)


def test_exhausted_records_are_rerun(tmp_path):
    # an exhaustion carries no certificate yet
    config = {"command": "search-hindman", "coloring": {"name": "seeded-hash-k", "k": 2},
              "seed": 1, "m": 4, "max_value": 5}
    code, result = _verify(tmp_path, _report(tmp_path, config))
    assert code == EXIT_OK
    assert result["details"] == [{"line": 1, "command": "search-hindman", "matches": True}]


def test_found_threshold_is_certified_and_rerun_on_request(tmp_path):
    path = _report(tmp_path, {"command": "threshold", "colors": 2, "repeats": True})
    assert json.loads(path.read_text())["result"]["certificate"] == [1, 2, 4, 3, 5]
    for rerun, entry in ((False, {"certificate": True}), (True, {})):
        code, result = _verify(tmp_path, path, rerun=rerun)
        assert code == EXIT_OK
        assert result["details"] == [{"line": 1, "command": "threshold", "matches": True,
                                      **entry}]


def test_found_threshold_without_a_certificate_is_rerun(tmp_path):
    # as written before thresholds had certificates: the re-run's claim is
    # the same, and the certificate it adds is not a claim
    path = _report(tmp_path, {"command": "threshold", "colors": 3, "repeats": True})
    _set_result(path, lambda r: r.pop("certificate"))
    code, result = _verify(tmp_path, path)
    assert code == EXIT_OK
    assert result["details"] == [{"line": 1, "command": "threshold", "matches": True}]
    _set_result(path, lambda r: r.__setitem__("n", 15))
    code, result = _verify(tmp_path, path)
    assert code == EXIT_EXHAUSTED and result["mismatches"] == 1
    assert result["details"][0]["reason"] == "result.n: recorded 15, re-derived 14"


_FILTER_LAWS_README = {"command": "verify-filter-laws", "ground": 3}


def _set_record(path, key, value):
    rec = json.loads(path.read_text())
    rec[key] = value
    path.write_text(json.dumps(rec) + "\n")


# Everything outside "result" is part of the record too, on both paths.
@pytest.mark.parametrize("key, value, reason", [
    ("exit", 1, "exit: recorded 1, re-derived 0"),
    ("command", "threshold", 'command: recorded "threshold", re-derived "{command}"'),
    ("schema_version", 99, "schema_version: expected 1, got 99"),
    ("extra", True, "extra: recorded true, re-derived nothing"),
], ids=["exit", "command", "schema-version", "extra-key"])
@pytest.mark.parametrize("config", [_HINDMAN_README, _FILTER_LAWS_README],
                         ids=["certified", "rerun-only"])
@pytest.mark.parametrize("rerun", [False, True], ids=["certificate", "rerun"])
def test_verify_report_checks_the_whole_record(tmp_path, config, key, value, reason, rerun):
    path = _report(tmp_path, config)
    _set_record(path, key, value)
    code, result = _verify(tmp_path, path, rerun=rerun)
    assert code == EXIT_EXHAUSTED and result["mismatches"] == 1
    entry = result["details"][0]
    assert entry["matches"] is False
    assert entry["reason"] == reason.format(command=config["command"])


def test_threshold_certificate_is_written_within_its_cap(tmp_path):
    # a run cut by its budget has none
    config = {"command": "threshold", "colors": 3, "repeats": False, "node_limit": 2_083}
    result = json.loads(_report(tmp_path, config).read_text())["result"]
    assert not result["found"] and "certificate" not in result
    # one entry more than the cap, and a found record is written without it
    report = cli.threshold_search(3, allow_repeats=False)
    assert len(report.certificate) == 1_642 <= search._MAX_REFUTATION
    assert report.to_record()["certificate"] == report.certificate
    report.certificate += [1] * (search._MAX_REFUTATION + 1 - 1_642)
    assert "certificate" not in report.to_record()


class _Built(Exception):
    """Raised by the stand-in encoding; not an error that main() catches."""


def test_cover_partition_rejects_max_index_below_m_before_building(capsys, monkeypatch):
    # the cofinite encoding takes time exponential in the truncation to build
    def build(truncation):
        raise _Built(truncation)

    monkeypatch.setattr(cli, "encode_cofinite_example", build)
    code = main(shlex.split("cover-partition --instance cofinite --truncation 14 "
                            "--edge-coloring constant --m 3 --max-index 2"))
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == "config error: max_index must allow m rounds\n"


def test_gamma_partition_at_ten_rounds_is_found_and_certified(tmp_path):
    # the search drops every prefix with a point outside more than f of its
    # unions, so the default budget finds this witness at node 4,105, where
    # it used to run for minutes
    path = tmp_path / "gamma.jsonl"
    code = main(shlex.split("cover-partition --edge-coloring constant --m 10 "
                            "--target gamma --max-index 64") + ["--out", str(path)])
    assert code == EXIT_OK
    assert json.loads(path.read_text())["result"]["witness"]["coverage"] == "holds"
    code, result = _verify(tmp_path, path)
    assert code == EXIT_OK
    assert result["details"] == [{"line": 1, "command": "cover-partition",
                                  "certificate": True, "matches": True}]


# Integer keys that take any size, each with its reason: a common key by
# its name, another by command.key, a descriptor key by descriptor.key.
# An entry leaves when its key gets a bound or a budget; none is added.
_UNBOUNDED = {
    # no work of their own
    "node_limit": "the budget itself",
    "seed": "selects the colorings, sequences and plays; no work of its own",
    "coloring.seed": "keys the hash; no work of its own",
    "horizon": "read by no command: play-game, game-transfer and cover-partition "
               "each have a bounded horizon of their own",
    # work that node_limit counts
    "search-hindman.max_value": "each candidate term is a node",
    # pure thresholds
    "t": "a multiplicity compared with counts",
    "f": "an exclusion bound compared with counts",
    "coloring.k": "a palette size; colors are reduced mod k",
    # bounded through another key
    "search-mt.d": "d <= m, or the search exits 3",
    "cover-partition.d": "d <= m, or the search exits 3",
}


def _accepts_any_size(parse, name, value=10 ** 12) -> bool:
    try:
        parse(name, value)
    except ConfigError:
        return False
    return True


def test_every_integer_key_is_bounded_or_budgeted():
    # a size that no budget counts lets one config run for minutes or
    # take gigabytes before the first node
    unbounded = set()
    for command, spec in cli._COMMANDS.items():
        for key, k in spec.keys.items():
            if k.parse.__qualname__.startswith("_integer.") and _accepts_any_size(k.parse, key):
                unbounded.add(key if key in cli._COMMON else f"{command}.{key}")
    for coloring, (keys, _) in cli._COLORING_KEYS.items():
        for key in keys:
            # the coloring's other keys at 1, since a -k coloring needs its k
            if _accepts_any_size(lambda name, v: cli._coloring_descriptor(
                    "coloring", {"name": coloring, **dict.fromkeys(keys, 1), key: v}), key):
                unbounded.add(f"coloring.{key}")
    if _accepts_any_size(lambda name, v: cli._sequence_descriptor(
            "sequence", {"kind": "random-finite-sets", "gen_max": v}), "gen_max"):
        unbounded.add("sequence.gen_max")
    assert unbounded == set(_UNBOUNDED)


# ---------------------------------------------------------------- main()

def test_main_threshold(tmp_path, capsys):
    code = main(["threshold", "--colors", "2", "--repeats"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert '"n": 5' in out


def test_main_usage_error():
    assert main(["search-hindman", "--m", "0"]) in (EXIT_USAGE,)


def test_main_unknown_command():
    assert main(["definitely-not-a-command"]) == EXIT_USAGE


def test_main_with_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "verify-filter-laws", "ground": 2}))
    code = main(["--config", str(cfg)])
    assert code == EXIT_OK
    assert '"families_scanned": 16' in capsys.readouterr().out


@pytest.mark.parametrize("field, config", [
    ("node_limit", {"command": "threshold", "node_limit": "many"}),
    ("coloring.k", {"command": "search-hindman", "m": 2, "max_value": 8,
                    "coloring": {"name": "mod-k", "k": "two"}}),
    ("m", {"command": "search-hindman", "m": "two", "max_value": 8,
           "coloring": {"name": "parity"}}),
])
def test_non_integer_field_is_a_config_error(tmp_path, capsys, field, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["--config", str(cfg)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}: expected an integer")
    assert "Traceback" not in err


@pytest.mark.parametrize("desc, d, subject, color", [
    ({"name": "parity"}, 1, (4,), 1),
    ({"name": "mod-k", "k": 3}, 1, (5,), 3),
    ({"name": "cardinality"}, 2, (1, 2), 2),
    ({"name": "constant", "k": 3, "color": 3}, 1, (1,), 3),
    ("mod-k:4", 2, (3, 6), 2),
])
def test_coloring_descriptor_builds_its_coloring(desc, d, subject, color):
    config = parse_config({"command": "search-hindman", "m": 2, "coloring": desc})
    assert cli._build_coloring(config, "coloring", d).of(*subject) == color


@pytest.mark.parametrize("desc, seed", [
    ({"name": "seeded-hash-k", "k": 5}, 7),
    ({"name": "seeded-hash-k", "k": 5, "seed": 3}, 3),
])
def test_seeded_hash_descriptor_takes_the_config_seed_unless_it_has_one(desc, seed):
    config = parse_config({"command": "search-hindman", "m": 2, "coloring": desc, "seed": 7})
    chi, want = cli._build_coloring(config, "coloring", 1), seeded_hash_coloring(5, seed)
    assert [chi.of(v) for v in range(1, 40)] == [want.of(v) for v in range(1, 40)]


@pytest.mark.parametrize("desc, message", [
    ({"name": "nope"}, "coloring.name: expected one of"),
    ({"k": 2}, "coloring: expected a coloring descriptor with a name"),
    ({"name": "mod-k"}, "coloring: mod-k needs a palette size 'k'"),
    ({"name": "seeded-hash-k", "seed": 1}, "coloring: seeded-hash-k needs a palette size 'k'"),
])
def test_bad_coloring_descriptor_is_refused(desc, message):
    with pytest.raises(ConfigError) as exc:
        cli._coloring_descriptor("coloring", desc)
    assert str(exc.value).startswith(message)


_HASH2 = {"name": "seeded-hash-k", "k": 2}


@pytest.mark.parametrize("message, config", [
    ("ground: must be in 1..4", {"command": "verify-filter-laws", "ground": 9}),
    ("truncation: must be in 1..14", {"command": "cover-partition", "instance": "cofinite",
                                  "truncation": 0, "edge_coloring": {"name": "constant"},
                                  "m": 2}),
    ("colors: must be in 1..64", {"command": "threshold", "colors": 0}),
    ("max_value: must be >= 0", {"command": "search-hindman", "m": 2, "max_value": -1,
                                 "coloring": {"name": "parity"}}),
    ("max_index must allow m blocks", {"command": "search-mt", "m": 3, "max_index": 2,
                                       "edge_coloring": {"name": "parity"}}),
    # the base's properness check builds all 2^max_index sums before the
    # first node, which no node budget counts
    ("max_index: must be in 0..16, got 17", {"command": "search-mt", "m": 3,
                                             "max_index": 17, "node_limit": 5,
                                             "edge_coloring": {"name": "parity"}}),
    # a duplicate key inside a descriptor is named by its path, as in a flag
    ("coloring.k: given twice", '{"command": "search-hindman", "m": 2, "max_value": 20, '
                                '"coloring": {"name": "mod-k", "k": 3, "k": 4}}'),
    ("sequence.terms: given twice", '{"command": "proper-or-collapse", "depth": 2, '
                                    '"sequence": {"kind": "literal", "terms": [1, 2], '
                                    '"terms": [1, 2, 4]}}'),
    ("delta: expected a fraction", {"command": "chain-check", "chain": "density",
                                    "delta": "abc"}),
    ("coloring: mod-k needs a palette size", {"command": "search-hindman", "m": 2,
                                              "max_value": 8, "coloring": "mod-k"}),
    ("m: required", {"command": "search-hindman", "max_value": 8,
                     "coloring": {"name": "parity"}}),
    ("m=2 < d=3", {"command": "search-mt", "m": 2, "d": 3, "max_index": 6,
                   "edge_coloring": _HASH2}),
    ("m=2 < d=3", {"command": "cover-partition", "m": 2, "d": 3, "max_index": 6,
                   "edge_coloring": _HASH2}),
])
def test_rejected_input_is_a_config_error(tmp_path, capsys, message, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config if isinstance(config, str) else json.dumps(config))
    assert main(["--config", str(cfg)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"config error: {message}")


@pytest.mark.parametrize("argv, message", [
    ("play-game --mode foo", "mode: expected one of g1, gfin"),
    ("search-hindman --coloring parity --m two", "m: expected an integer"),
    ("search-mt --edge-coloring seeded-hash-k:x --m 2", "edge_coloring.k: expected an integer"),
    # these three used to end in an IndexError or a TypeError traceback, or
    # in a collapse to 0 or to the empty set, neither of which is a term
    ("""proper-or-collapse --sequence '{"kind":"literal","terms":[1,2]}' --depth 4""",
     "depth=4 needs 4 terms, the sequence has 2"),
    ("""proper-or-collapse --sequence '{"kind":"literal","terms":[0,0,0]}' --depth 3""",
     "sequence.terms: must be >= 1, got 0"),
    ("""proper-or-collapse --sequence '{"kind":"literal","semigroup":"finite-sets","""
     """"terms":[[],[]]}'""", "sequence.terms: expected a nonempty list, got []"),
    # this one ran powers of two over the naturals and reported proper,
    # while its record claimed a finite-sets literal that would collapse
    ("""proper-or-collapse --depth 3 --sequence '{"kind":"powers-of-two","""
     """"semigroup":"finite-sets","terms":[[1],[1],[1]],"gen_max":3}'""",
     "sequence.semigroup: not read by kind powers-of-two"),
    # no block sum lies in a chain over the other semigroup, so these
    # reported a complete exhaustion with exit 1
    ("search-mt --semigroup finite-sets --base singletons --chain fs-tails-pow2 "
     "--edge-coloring seeded-hash-k:2 --m 3 --max-index 8",
     "chain over naturals-with-addition cannot hold sums over finite-sets-with-union"),
    *(("search-mt --chain {} --edge-coloring seeded-hash-k:2 --m 3 --max-index 8".format(c),
       "chain over finite-sets-with-union cannot hold sums over naturals-with-addition")
      for c in ("fs-tails-singletons", "ap", "density")),
    # keys that the coloring never reads: these recorded a k that no color
    # used, a sed that the hash never saw (it hashed with seed 0), or
    # dropped the 4 in silence
    ("search-hindman --coloring parity:5 --m 2", "coloring.k: not read by parity"),
    ("search-mt --edge-coloring cardinality:5 --m 3 --max-index 8",
     "edge_coloring.k: not read by cardinality"),
    ("search-mt --edge-coloring seeded-hash-k:2:sed=3 --m 3 --max-index 8",
     "edge_coloring.sed: not read by seeded-hash-k"),
    ("search-hindman --coloring mod-k:3:seed=1 --m 2", "coloring.seed: not read by mod-k"),
    ("search-hindman --coloring constant:1:seed=1 --m 2",
     "coloring.seed: not read by constant"),
    ("""search-mt --edge-coloring '{"name":"constant","d":3}' --m 3 --max-index 8""",
     "edge_coloring.d: not read by constant"),
    # a JSON flag's duplicate key used to take the last value in silence,
    # where the same descriptor in a --config file was rejected; it is
    # named by its flag, as in the compact form
    ("""search-hindman --coloring '{"name":"mod-k","k":3,"k":4}' --m 2 --max-value 20""",
     "coloring.k: given twice"),
    ("""search-mt --edge-coloring '{"name":"seeded-hash-k","k":2,"k":3}' --m 3 """
     """--max-index 8""", "edge_coloring.k: given twice"),
    ("""proper-or-collapse --sequence '{"kind":"random-finite-sets","gen_max":3,"""
     """"gen_max":4}'""", "sequence.gen_max: given twice"),
    ("search-hindman --coloring mod-k:3:4 --m 2", "coloring.k: given twice"),
    ("search-hindman --coloring mod-k:k=3:4 --m 2", "coloring.k: given twice"),
    ("search-hindman --coloring modk:3 --m 2", "coloring.name: expected one of"),
    # keys that only another variant of the command reads
    ("game-transfer --n 3", "n: not read by which gfin-to-g1"),
    ("game-transfer --which gfin-to-g1 --picks 5", "picks: not read by which gfin-to-g1"),
    ("game-transfer --which diagonal --rounds 4", "rounds: not read by which diagonal"),
    # the diagonal cover's work grows as n^n, and the replay reads no more
    # than 32 picks: n = 5 took seconds, and picks = 1000 over a minute
    ("game-transfer --which diagonal --n 5", "n: must be in 0..4, got 5"),
    ("game-transfer --which diagonal --n=-1", "n: must be in 0..4, got -1"),
    ("game-transfer --which diagonal --picks 33", "picks: must be in 1..32, got 33"),
    ("game-transfer --which diagonal --picks 0", "picks: must be in 1..32, got 0"),
    # no budget counts the sets that a horizon makes the referee read: the
    # diagonal took 2.3 s at horizon 64, gfin-to-g1 minutes at 1024, and
    # play-game 5 s at 800 rounds and horizon 800
    ("game-transfer --which diagonal --n 4 --horizon 33",
     "horizon: must be in 1..32, got 33"),
    ("game-transfer --which gfin-to-g1 --horizon 33", "horizon: must be in 1..32, got 33"),
    ("play-game --horizon 257", "horizon: must be in 1..256, got 257"),
    # sizes that no node budget counts, one past their bounds (the reasons
    # are in the key table)
    ("play-game --rounds 257", "rounds: must be in 1..256, got 257"),
    ("game-transfer --rounds 33", "rounds: must be in 1..32, got 33"),
    ("search-hindman --coloring constant --m 17 --max-value 1000000",
     "m: must be in 1..16, got 17"),
    ("search-mt --edge-coloring constant --m 13 --max-index 13",
     "m: must be in 1..12, got 13"),
    ("cover-partition --edge-coloring constant --target op --m 11 --max-index 64",
     "m: must be in 1..10, got 11"),
    ("cover-partition --edge-coloring constant --target op --m 2 --max-index 257",
     "max_index: must be in 0..256, got 257"),
    ("cover-partition --instance cofinite --truncation 15 --edge-coloring constant "
     "--m 2 --target op --horizon 1 --max-index 6", "truncation: must be in 1..14, got 15"),
    ("encode-classical --truncation 15", "truncation: must be in 3..14, got 15"),
    ("""proper-or-collapse --sequence '{"kind":"random-finite-sets","gen_max":10001}'""",
     "sequence.gen_max: must be in 1..10000, got 10001"),
    ("threshold --colors 65", "colors: must be in 1..64, got 65"),
    ("threshold --max-value 1025", "max_value: must be in 0..1024, got 1025"),
    # ap samples progressions of length depth + 2 among 64 terms, and depth
    # 63 used to exit 3 with a message that named no key
    ("chain-check --chain ap --depth 63", "depth: must be in 1..62, got 63"),
    ("chain-check --chain fs-tails-pow2 --depth 62 --window 1025",
     "window: must be in 1..1024, got 1025"),
    ("proper-or-collapse --depth 16", "depth: must be in 2..15, got 16"),
    ("proper-or-collapse --runs 17", "runs: must be in 1..16, got 17"),
    ("cover-partition --edge-coloring constant --m 2 --target gamma --max-index 64 "
     "--horizon 17", "horizon: must be in 1..16, got 17"),
    ("cover-partition --edge-coloring constant --m 2 --target omega --max-index 64 "
     "-s 7", "s: must be in 1..6, got 7"),
    # a constant color outside the palette used to be refused only once the
    # search first colored a sum, with a message that named no key
    ("search-hindman --coloring constant:1:color=3 --m 2 --max-value 7",
     "coloring.color: must be in 1..1, got 3"),
    ("search-hindman --coloring constant:color=0 --m 2 --max-value 7",
     "coloring.color: must be in 1..1, got 0"),
    ("cover-partition --truncation 5 --edge-coloring constant --m 2 --max-index 6",
     "truncation: not read by instance initial-segments"),
    ("chain-check --chain ap --delta 1/2", "delta: not read by chain ap"),
    ("chain-check --delta 1/2", "delta: not read by chain fs-tails-pow2"),
    # a density above 1 exited 3 with a message that named no key, and a
    # negative one held vacuously with exit 0
    ("chain-check --chain density --delta 3/2",
     "delta: must lie strictly between 0 and 1, got 3/2"),
    ("chain-check --chain density --delta=-1/2",
     "delta: must lie strictly between 0 and 1, got -1/2"),
    ("chain-check --chain density --delta 0", "delta: must lie strictly between 0 and 1"),
    ("chain-check --chain density --delta 1", "delta: must lie strictly between 0 and 1"),
    # near 1, deep levels need runs longer than density_family tries
    ("chain-check --chain density --delta 9/10 --depth 62",
     "chain-check.delta: 9/10 is too close to 1 for depth 62: tail never exceeded "
     "density 92/105 in the window"),
])
def test_bad_flag_is_a_config_error(capsys, argv, message):
    assert main(shlex.split(argv)) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"config error: {message}")


def _subcommands():
    """Each subcommand's parser, by name."""
    parser = cli.build_parser()
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


@pytest.mark.parametrize("name", sorted(cli._COMMANDS))
def test_abbreviated_flag_is_a_usage_error(tmp_path, monkeypatch, capsys, name):
    # argparse reads an abbreviation as the flag it prefixes, so that
    # cover-partition --s 9 used to run with seed 9
    monkeypatch.chdir(tmp_path)
    flags = _subcommands()[name]._option_string_actions
    checked = 0
    for flag, action in flags.items():
        short = flag[:-1]
        if not flag.startswith("--") or short in flags:
            continue
        argv = [name, short] + (["1"] if action.nargs is None else [])
        assert main(argv) == EXIT_USAGE, argv
        assert f"unrecognized arguments: {short}" in capsys.readouterr().err
        checked += 1
    assert checked >= 2  # --help and --seed at least


def test_abbreviated_top_level_flag_is_a_usage_error(tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"command": "threshold", "colors": 1}')
    ran = []
    monkeypatch.setattr(cli, "dispatch", ran.append)
    assert main(["--confi", str(cfg), "threshold"]) == EXIT_USAGE
    assert ran == []


# parity and mod-k add up their subject's elements, so sums that are sets
# used to end in a TypeError traceback and exit 1
_FIN_MT = "search-mt --semigroup finite-sets --base singletons --m 3 --d 2 --max-index 8"
_UNIONS = "cover-partition --m 3 --d 2 --target lambda --max-index 8"


@pytest.mark.parametrize("argv, message", [
    (f"{_FIN_MT} --edge-coloring parity",
     "edge_coloring: parity needs integer sums, not finite sets"),
    (f"{_FIN_MT} --edge-coloring mod-k:2",
     "edge_coloring: mod-k needs integer sums, not finite sets"),
    (f"{_FIN_MT} --edge-coloring seeded-hash-k:2 --vertex-coloring parity",
     "vertex_coloring: parity needs integer sums, not finite sets"),
    (f"{_UNIONS} --instance initial-segments --edge-coloring parity",
     "edge_coloring: parity needs integer sums, not unions of cover members"),
    (f"{_UNIONS} --instance cofinite --edge-coloring mod-k:2",
     "edge_coloring: mod-k needs integer sums, not unions of cover members"),
    (f"{_UNIONS} --edge-coloring constant --vertex-coloring mod-k:3",
     "vertex_coloring: mod-k needs integer sums, not unions of cover members"),
])
def test_arithmetic_coloring_of_set_sums_is_a_config_error(capsys, argv, message):
    assert main(shlex.split(argv)) == EXIT_USAGE
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_arithmetic_coloring_of_integer_sums_still_runs(tmp_path):
    code, lines = run_config(tmp_path, {
        "command": "search-mt", "edge_coloring": "parity",
        "vertex_coloring": "mod-k:3", "m": 3, "d": 2, "max_index": 8})
    assert code in (EXIT_OK, EXIT_EXHAUSTED) and len(lines) == 1


# Counts below their bound used to give vacuous reports (an empty game, no
# run, a chain that "holds" at depth 0) or, for encode-classical below
# truncation 3, an IndexError in the isomorphism checks, which ask for O_3.
@pytest.mark.parametrize("argv, message", [
    ("chain-check --depth=0", "depth: must be in 1..62, got 0"),
    ("chain-check --depth=-1", "depth: must be in 1..62, got -1"),
    ("chain-check --window=0", "window: must be in 1..1024, got 0"),
    ("play-game --rounds=0", "rounds: must be in 1..256, got 0"),
    ("game-transfer --rounds=0", "rounds: must be in 1..32, got 0"),
    ("proper-or-collapse --runs=0", "runs: must be in 1..16, got 0"),
    ("encode-classical --truncation=1", "truncation: must be in 3..14, got 1"),
    ("encode-classical --truncation=2", "truncation: must be in 3..14, got 2"),
])
def test_count_below_its_bound_is_a_config_error(capsys, argv, message):
    assert main(shlex.split(argv)) == EXIT_USAGE
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_env_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("SUMGAMES_OUT_DIR", str(tmp_path / "reports"))
    code = main(["verify-filter-laws", "--ground", "2"])
    assert code == EXIT_OK
    out_file = tmp_path / "reports" / "verify-filter-laws.jsonl"
    assert out_file.exists()


def test_dispatch_pretty_and_csv_formats(tmp_path):
    for fmt, probe in (("pretty", "== threshold"), ("csv", "result.n")):
        out = tmp_path / f"r.{fmt}"
        cfg = parse_config({"command": "threshold", "colors": 2, "repeats": True,
                            "format": fmt, "out": str(out)})
        assert dispatch(cfg) == EXIT_OK
        assert probe in out.read_text()


def test_verify_report_multiple_records(tmp_path):
    path = tmp_path / "multi.jsonl"
    lines = []
    for data in ({"command": "threshold", "colors": 2, "repeats": True},
                 {"command": "verify-filter-laws", "ground": 2},
                 {"command": "encode-classical", "truncation": 4}):
        single = tmp_path / "one.jsonl"
        cfg = parse_config({**data, "out": str(single)})
        dispatch(cfg)
        lines.append(single.read_text().strip())
    path.write_text("\n".join(lines) + "\n")
    code, recs = run_config(tmp_path, {"command": "verify-report",
                                       "input": str(path)}, name="v.jsonl")
    assert code == EXIT_OK
    assert recs[0]["result"]["records"] == 3
    assert recs[0]["result"]["mismatches"] == 0


@pytest.mark.parametrize("text", ["", "\n \n\t\n"], ids=["empty", "blank-lines"])
def test_verify_report_with_no_records_fails(tmp_path, text):
    # an input with no records verified nothing
    path = tmp_path / "none.jsonl"
    path.write_text(text)
    code, result = _verify(tmp_path, path)
    assert code == EXIT_EXHAUSTED
    assert result == {"records": 0, "mismatches": 0, "details": []}


def test_search_mt_records_finite_set_terms_in_text_order(tmp_path):
    # a finite-set term lists its members sorted as text, so 10 precedes 8
    path = tmp_path / "mt.jsonl"
    argv = ("search-mt --edge-coloring seeded-hash-k:3:seed=2 --semigroup finite-sets "
            f"--base singletons --m 4 --d 3 --max-index 12 --out {path}")
    assert main(shlex.split(argv)) == EXIT_OK
    [rec] = [json.loads(line) for line in path.read_text().splitlines()]
    assert rec["result"]["witness"]["terms"] == [[1], [2], [3], [10, 8, 9]]
    code, result = _verify(tmp_path, path)
    assert code == EXIT_OK and result["details"][0]["matches"] is True


# ---------------------------------------------------------------- flag surface

# Every config key a report records even when it was not given.
_RECORDED_DEFAULTS = {"seed": 0, "format": "json-lines", "node_limit": 10 ** 7,
                      "parallelism": 1, "horizon": 16, "t": 2, "s": 2, "f": 2}

# Each command line with the config main builds from it and its exit code:
# the README's "Command line" examples first, then every remaining flag.
# The configs were recorded from the hand-written parser that the schema
# table replaced.
FLAG_SURFACE = [
    ("threshold --colors 2 --repeats",
     {"command": "threshold", "colors": 2, "repeats": True}, EXIT_OK),
    ("threshold --colors 3 --no-repeats",
     {"command": "threshold", "colors": 3, "repeats": False}, EXIT_OK),
    ("search-hindman --coloring parity --m 2 --max-value 7",
     {"command": "search-hindman", "coloring": {"name": "parity"}, "m": 2,
      "max_value": 7}, EXIT_OK),
    ("search-mt --edge-coloring seeded-hash-k:2:seed=4 --semigroup finite-sets "
     "--base singletons --m 3 --d 2 --max-index 8",
     {"command": "search-mt",
      "edge_coloring": {"name": "seeded-hash-k", "k": 2, "seed": 4},
      "semigroup": "finite-sets", "base": "singletons", "m": 3, "d": 2,
      "max_index": 8}, EXIT_OK),
    ("proper-or-collapse --depth 5 --runs 10 --seed 1",
     {"command": "proper-or-collapse", "seed": 1, "depth": 5, "runs": 10}, EXIT_OK),
    ("verify-filter-laws --ground 3",
     {"command": "verify-filter-laws", "ground": 3}, EXIT_OK),
    ("chain-check --chain ap --depth 4",
     {"command": "chain-check", "chain": "ap", "depth": 4}, EXIT_OK),
    ("play-game --alice dual-random --bob filter --rounds 16 --horizon 16",
     {"command": "play-game", "alice": "dual-random", "bob": "filter",
      "rounds": 16}, EXIT_OK),
    ("game-transfer --which diagonal --n 3 --horizon 8",
     {"command": "game-transfer", "horizon": 8, "which": "diagonal", "n": 3}, EXIT_OK),
    ("cover-partition --instance cofinite --truncation 6 --edge-coloring constant "
     "--m 2 --d 2 --target op --horizon 1 --max-index 6",
     {"command": "cover-partition", "horizon": 1, "instance": "cofinite",
      "truncation": 6, "edge_coloring": {"name": "constant"}, "m": 2, "d": 2,
      "target": "op", "max_index": 6}, EXIT_OK),
    ("encode-classical --truncation 8",
     {"command": "encode-classical", "truncation": 8}, EXIT_OK),
    ("verify-filter-laws --ground 3 --out report.jsonl",
     {"command": "verify-filter-laws", "ground": 3}, EXIT_OK),
    ("verify-report --input report.jsonl",
     {"command": "verify-report", "input": "report.jsonl"}, EXIT_OK),
    ("verify-report --input report.jsonl --rerun",
     {"command": "verify-report", "input": "report.jsonl", "rerun": True}, EXIT_OK),
    ("verify-filter-laws --ground 2 --format pretty",
     {"command": "verify-filter-laws", "format": "pretty", "ground": 2}, EXIT_OK),
    ("verify-filter-laws --ground 2 --format csv --seed 7 --node-limit 500",
     {"command": "verify-filter-laws", "seed": 7, "format": "csv",
      "node_limit": 500, "ground": 2}, EXIT_OK),
    ("threshold --colors 2 --no-repeats --max-value 20",
     {"command": "threshold", "colors": 2, "repeats": False, "max_value": 20},
     EXIT_OK),
    ("search-hindman --coloring '{\"name\": \"mod-k\", \"k\": 3}' --m 2 "
     "--max-value 20 --seed 5",
     {"command": "search-hindman", "seed": 5, "coloring": {"name": "mod-k", "k": 3},
      "m": 2, "max_value": 20}, EXIT_OK),
    ("search-mt --edge-coloring seeded-hash-k:2 --vertex-coloring parity "
     "--semigroup naturals --base powers-of-two --m 2 --d 2 --max-index 6 "
     "--chain fs-tails-pow2 --seed 3",
     {"command": "search-mt", "seed": 3,
      "edge_coloring": {"name": "seeded-hash-k", "k": 2},
      "vertex_coloring": {"name": "parity"}, "semigroup": "naturals",
      "base": "powers-of-two", "m": 2, "d": 2, "max_index": 6,
      "chain": "fs-tails-pow2"}, EXIT_OK),
    ("proper-or-collapse --depth 4 --runs 2 "
     "--sequence '{\"kind\": \"random-finite-sets\", \"gen_max\": 5}'",
     {"command": "proper-or-collapse", "depth": 4, "runs": 2,
      "sequence": {"kind": "random-finite-sets", "gen_max": 5}}, EXIT_OK),
    ("chain-check --chain density --depth 3 --window 3 --delta 1/4",
     {"command": "chain-check", "chain": "density", "depth": 3, "window": 3,
      "delta": "1/4"}, EXIT_OK),
    ("play-game --alice intervals --bob first --rounds 6 --horizon 6 --mode g1 "
     "--target meets-generators",
     {"command": "play-game", "horizon": 6, "alice": "intervals", "bob": "first",
      "rounds": 6, "mode": "g1", "target": "meets-generators"}, EXIT_OK),
    ("play-game --alice intervals --bob first --rounds 8 --horizon 8 --mode gfin",
     {"command": "play-game", "horizon": 8, "alice": "intervals", "bob": "first",
      "rounds": 8, "mode": "gfin"}, EXIT_OK),
    ("game-transfer --which gfin-to-g1 --horizon 6 --rounds 6 --seed 2",
     {"command": "game-transfer", "seed": 2, "horizon": 6, "which": "gfin-to-g1",
      "rounds": 6}, EXIT_OK),
    ("game-transfer --which diagonal --n 2 --horizon 6 --picks 5",
     {"command": "game-transfer", "horizon": 6, "which": "diagonal", "n": 2,
      "picks": 5}, EXIT_OK),
    ("cover-partition --instance initial-segments --edge-coloring constant "
     "--vertex-coloring constant --m 2 --d 2 --target op --horizon 2 "
     "--max-index 8 -t 1 -s 1 -f 1",
     {"command": "cover-partition", "horizon": 2, "t": 1, "s": 1, "f": 1,
      "instance": "initial-segments", "edge_coloring": {"name": "constant"},
      "vertex_coloring": {"name": "constant"}, "m": 2, "d": 2, "target": "op",
      "max_index": 8}, EXIT_OK),
    ("encode-classical --truncation 5 -t 3 -s 4 -f 5",
     {"command": "encode-classical", "t": 3, "s": 4, "f": 5, "truncation": 5},
     EXIT_OK),
    ("--config cfg.json verify-filter-laws --ground 3",
     {"command": "verify-filter-laws", "ground": 3}, EXIT_OK),
]


@pytest.mark.parametrize("argv, config, code", FLAG_SURFACE,
                         ids=[argv for argv, _, _ in FLAG_SURFACE])
def test_flag_surface(tmp_path, monkeypatch, capsys, argv, config, code):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SUMGAMES_OUT_DIR", raising=False)
    (tmp_path / "cfg.json").write_text('{"command": "verify-filter-laws", "ground": 2}')
    main(["verify-filter-laws", "--ground", "3", "--out", "report.jsonl"])
    built = []
    real_dispatch = cli.dispatch

    def recording_dispatch(cfg):
        built.append(cfg.to_dict())
        return real_dispatch(cfg)

    monkeypatch.setattr(cli, "dispatch", recording_dispatch)
    assert main(shlex.split(argv)) == code
    assert built == [{**_RECORDED_DEFAULTS, **config}]


# The rows whose command writes a report that verify-report reads, and a
# threshold record that holds an avoider as its certificate.
_REPORTING_ROWS = [(argv, config) for argv, config, _ in FLAG_SURFACE
                   if config["command"] != "verify-report" and "format" not in config]
_REPORTING_ROWS.append(("threshold --colors 4 --repeats --max-value 40", _NO_THRESHOLD_40))


@pytest.mark.parametrize("argv, config", _REPORTING_ROWS,
                         ids=[argv for argv, _ in _REPORTING_ROWS])
def test_verify_report_agrees_with_rerun(tmp_path, argv, config):
    path = _report(tmp_path, config)
    by_certificate = _verify(tmp_path, path)
    by_rerun = _verify(tmp_path, path, rerun=True)
    assert by_certificate[0] == by_rerun[0] == EXIT_OK
    assert ([d["matches"] for d in by_certificate[1]["details"]]
            == [d["matches"] for d in by_rerun[1]["details"]])


# The filter Bob intersects Alice's set of points with a generator, so he
# cannot answer the covers that intervals Alice plays: the pairing is a
# usage error that names bob, not a game Bob loses in round 0.
def _play_is_refused(tmp_path, capsys, config):
    path = tmp_path / "play.json"
    path.write_text(json.dumps(config))
    assert main(["--config", str(path)]) == EXIT_USAGE
    assert capsys.readouterr().err == ("config error: bob: filter needs alice "
                                       "dual-random, which plays sets of points\n")


# A finite-selection game whose Bob takes one pick a round selects what the
# single-selection game selects; each round records the pick as a 1-tuple.
@pytest.mark.parametrize("alice", ["intervals", "dual-random"])
@pytest.mark.parametrize("bob", ["first", "filter"])
@pytest.mark.parametrize("seed", [1, 3])
def test_play_game_gfin_selects_as_g1(tmp_path, capsys, alice, bob, seed):
    config = {"command": "play-game", "alice": alice, "bob": bob, "seed": seed,
              "rounds": 6, "horizon": 6}
    if alice == "intervals" and bob == "filter":
        for mode in ("g1", "gfin"):
            _play_is_refused(tmp_path, capsys, {**config, "mode": mode})
        return
    g1_code, [g1] = run_config(tmp_path, {**config, "mode": "g1"}, name="g1.jsonl")
    gfin_code, [gfin] = run_config(tmp_path, {**config, "mode": "gfin"}, name="gfin.jsonl")
    assert gfin_code == g1_code == gfin["exit"]
    for key in ("outcome", "illegal", "rounds_played", "selections"):
        assert gfin["result"][key] == g1["result"][key]
    assert ([r["bob"] for r in gfin["result"]["rounds"]]
            == [f"({r['bob']},)" for r in g1["result"]["rounds"]])
    code, result = _verify(tmp_path, tmp_path / "gfin.jsonl")
    assert code == EXIT_OK and result["details"][0]["matches"] is True


# Every play-game pairing at 8 rounds runs to a verdict that verify-report
# matches, except the filter Bob against intervals Alice, which is refused,
# and a cover-kind target against dual-random Alice: she plays sets of
# points, so Bob selects points, and a cover target judges sets.
@pytest.mark.parametrize("alice", ["intervals", "dual-random"])
@pytest.mark.parametrize("bob", ["first", "filter"])
@pytest.mark.parametrize("mode", ["g1", "gfin"])
@pytest.mark.parametrize("target", ["meets-generators", "op", "asc", "lambda",
                                    "omega", "gamma"])
def test_play_game_every_target(tmp_path, capsys, alice, bob, mode, target):
    config = {"command": "play-game", "alice": alice, "bob": bob, "mode": mode,
              "target": target, "rounds": 8, "horizon": 8}
    if alice == "intervals" and bob == "filter":
        _play_is_refused(tmp_path, capsys, config)
        return
    if alice == "dual-random" and target != "meets-generators":
        with pytest.raises(TypeError, match="^a cover target judges set selections; "
                                            "Bob selected points$"):
            run_config(tmp_path, config)
        return
    code, [rec] = run_config(tmp_path, config)
    assert code in (EXIT_OK, EXIT_EXHAUSTED, EXIT_UNKNOWN) and rec["exit"] == code
    verify_code, result = _verify(tmp_path, tmp_path / "report.jsonl")
    assert verify_code == EXIT_OK and result["details"][0]["matches"] is True
