import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from verseforge.cli import (
    ConfigError,
    PipelineError,
    PipelineRuntime,
    load_config,
    main,
    run_pipeline,
    serve_report,
)
from verseforge.corpus import Document, load_corpus, load_document, load_word_list, tokenize
from verseforge.metrics import RhymeConfig, rhyme_density
from verseforge.phonetics import load_lexicon
from verseforge.selection import (
    VECTORS_FILE,
    VOCAB_FILE,
    load_hypotheses,
    load_index,
    load_word_vectors,
    rerank,
)
from verseforge.stripping import SynonymLexicon

from conftest import DATA_DIR, PKG_DATA_DIR

MINI = DATA_DIR / "mini_corpus"
LEXICON = PKG_DATA_DIR / "cmudict_sample.txt"
SRC = Path(__file__).parent.parent / "src"


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLoadConfig:
    def test_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{}")
        cfg = load_config(path)
        assert cfg.enhance.k == 200
        assert cfg.rhyme.lookback_window == 15
        assert cfg.drop_rate == 0.20 and cfg.synonym_rate == 0.20
        assert cfg.seed == 0

    def test_partial_override(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"enhance": {"k": 50}}')
        cfg = load_config(path)
        assert cfg.enhance.k == 50
        assert cfg.enhance.mode == "first_improvement"
        assert cfg.rhyme.lookback_window == 15

    def test_unknown_key_lists_valid_keys(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"lexicon": "x"}')
        with pytest.raises(ConfigError, match="lexicon_path"):
            load_config(path)

    def test_type_mismatch_names_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"seed": "zero"}')
        with pytest.raises(ConfigError, match="seed"):
            load_config(path)

    def test_bool_not_accepted_as_int(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"seed": true}')
        with pytest.raises(ConfigError, match="seed"):
            load_config(path)

    def test_remote_requires_endpoint(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"predictor": "remote"}')
        with pytest.raises(ConfigError, match="endpoint"):
            load_config(path)

    @pytest.mark.parametrize(
        "endpoint",
        ["localhost:8000", "http://", "ftp://127.0.0.1:8000",
         "http://127.0.0.1:99999", "http://127.0.0.1:abc", "http://127.0.0.1:0"],
    )
    def test_remote_endpoint_must_be_http_url_with_host(self, endpoint):
        with pytest.raises(ConfigError, match="must be an http"):
            load_config(None, {"predictor": "remote", "endpoint": endpoint})

    def test_unparsable_remote_endpoint_is_a_config_error(self):
        with pytest.raises(ConfigError, match="IPv6"):
            load_config(None, {"predictor": "remote", "endpoint": "http://[::1"})

    def test_missing_path_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"lexicon_path": "/nonexistent/lex.dict"}')
        with pytest.raises(ConfigError, match="lexicon_path"):
            load_config(path)

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"seed": 1, "enhance": {"k": 50}}')
        cfg = load_config(path, {"seed": 2, "enhance": {"k": 10, "mode": None}})
        assert cfg.seed == 2 and cfg.enhance.k == 10

    def test_no_file_all_defaults(self):
        cfg = load_config(None)
        assert cfg.noise == "shuffle" and cfg.predictor == "corpus"

    def test_readme_example_is_the_defaults(self, tmp_path):
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        example = re.search(r"```json\n(.*?)```", readme, re.DOTALL).group(1)
        path = tmp_path / "cfg.json"
        path.write_text(example)
        assert len(json.loads(example)) == 13
        assert load_config(path) == load_config(None)

    def test_deny_list_is_not_a_config_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"enhance": {"deny_list": []}}')
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value) == "unknown config key enhance.'deny_list'; valid keys: k, mode"

    def test_float_key_takes_an_int(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"drop_rate": 1}')
        assert load_config(path).drop_rate == 1

    @pytest.mark.parametrize(
        "data, key",
        [
            ({"enhance": {"k": True}}, "enhance.'k'"),
            ({"rhyme": {"exclude_identical": 1}}, "rhyme.'exclude_identical'"),
            ({"drop_rate": "0.5"}, "'drop_rate'"),
            ({"rhyme": []}, "'rhyme'"),
            ({"endpoint": 5}, "'endpoint'"),
        ],
    )
    def test_wrong_type_rejected(self, tmp_path, data, key):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value).startswith(f"config key {key} has wrong type: ")

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"noise": "loud"}, "unknown noise type 'loud'"),
            ({"predictor": "oracle"}, "unknown predictor 'oracle'"),
            ({"enhance": {"k": 0}}, "k must be >= 1"),
            ({"enhance": {"mode": "bogus"}},
             "mode must be one of ('first_improvement', 'best_of_k'), got 'bogus'"),
            ({"rhyme": {"lookback_window": 0}}, "lookback_window must be >= 1"),
        ],
    )
    def test_value_outside_choices_rejected(self, tmp_path, data, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value) == message

    @pytest.mark.parametrize("text", ["[]", '[{"seed": 1}]', "5", '"seed"', "null"])
    def test_file_must_hold_an_object(self, tmp_path, text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value) == f"config {path} must hold a JSON object"

    def test_corpus_predictor_requires_corpus_path(self):
        with pytest.raises(ConfigError) as info:
            PipelineRuntime.from_config(load_config(None))
        assert str(info.value) == "predictor 'corpus' requires corpus_path"


class TestServeReport:
    def test_single_report_zero_std(self):
        table = serve_report([{"rd_after": 0.8, "rep": 0.1, "overlap_vs_input": 0.5, "rd_before": 0.7}])
        assert "0.80 ± 0.00" in table

    def test_population_std(self):
        table = serve_report([{"rd_after": 0.8}, {"rd_after": 1.0}])
        assert "0.90 ± 0.10" in table

    def test_four_fixed_columns(self):
        # Keys outside the four columns, numeric or not, add no column.
        report = {"overlap_vs_input": 0.5, "rd_before": 0.25, "rd_after": 1.0, "rep": 0.0,
                  "replaced_positions": [[0, 1]], "rd": 2.0}
        assert serve_report([report]).splitlines() == [
            "Overlap      RD before    RD after     Rep",
            "0.50 ± 0.00  0.25 ± 0.00  1.00 ± 0.00  0.00 ± 0.00",
        ]

    def test_missing_column_dash(self):
        table = serve_report([{"rd_after": 1.0}, {"rd_after": 1.2}])
        header, row = table.splitlines()
        cols = header.split()
        assert "Overlap" in cols
        assert row.split()[0] == "-"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            serve_report([])


class TestCorpusCommands:
    def test_stats_matches_golden(self, capsys):
        code, out, err = run_cli(capsys, "corpus", "stats", MINI, "--kind", "lyrics")
        assert code == 0 and err == ""
        stats = json.loads(out)
        golden = json.loads((DATA_DIR / "golden_stats.json").read_text())
        assert stats["n_docs"] == golden["n_docs"]
        for key in ("sentences_per_doc", "tokens_per_doc", "tokens_per_sentence"):
            assert stats[key][0] == pytest.approx(golden[key][0], abs=1e-9)
            assert stats[key][1] == pytest.approx(golden[key][1], abs=1e-9)

    def test_split_filters_short_blocks(self, capsys):
        code, out, _ = run_cli(capsys, "corpus", "split", MINI / "doc_c.txt")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 1  # the 2-line block is dropped
        assert records[0]["doc"] == "doc_c"
        assert records[0]["text"].startswith("dreams of gold")


class TestStripCommand:
    def test_byte_identical_across_runs_and_workers(self, capsys):
        outputs = []
        for jobs in ("1", "8", "1"):
            code, out, _ = run_cli(
                capsys, "strip", MINI, "--noise", "shuffle", "--seed", "5", "--jobs", jobs
            )
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_records_shape(self, capsys):
        code, out, _ = run_cli(capsys, "strip", MINI / "doc_b.txt", "--noise", "drop", "--seed", "3")
        record = json.loads(out.splitlines()[0])
        assert record["doc"] == "doc_b"
        assert record["noise"] == "drop" and record["seed"] == 3

    def test_synonym_noise_via_bundled_lexicon(self, capsys):
        code, out, _ = run_cli(
            capsys, "strip", MINI / "doc_a.txt",
            "--noise", "synonym", "--seed", "1",
            "--synonyms", PKG_DATA_DIR / "synonyms_sample.tsv",
        )
        assert code == 0 and json.loads(out.splitlines()[0])["noise"] == "synonym"


class TestPairCommand:
    def test_pairs_on_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "pair", MINI / "doc_a.txt", "--noise", "shuffle", "--seed", "13")
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 2  # two 4-line verses
        assert all(set(r) == {"source", "target"} for r in records)

    def test_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "pairs.jsonl"
        code, out, _ = run_cli(
            capsys, "pair", MINI / "doc_a.txt", "--noise", "none", "--out", out_path
        )
        assert code == 0 and out == ""
        assert len(out_path.read_text().splitlines()) == 2

    def test_reserved_token_synonyms_stay_out_of_the_source(self, capsys, tmp_path):
        verse = tmp_path / "ok.txt"
        verse.write_text("we ride at night\nthe day is bright\nwe go slow\nwe hold the flow\n")
        table = tmp_path / "syn.tsv"
        table.write_text("ride\t<nl>\nnight\t<MASK>\n")
        code, out, _ = run_cli(
            capsys, "pair", verse, "--noise", "synonym", "--synonym-rate", "1",
            "--synonyms", table,
        )
        assert code == 0
        assert json.loads(out)["source"] == "ride night <nl> day bright <nl> go slow <nl> hold flow"

    @pytest.mark.parametrize(
        "argv",
        [
            [MINI / "missing.txt"],
            [MINI / "doc_a.txt", "--noise", "synonym"],
            [MINI / "doc_a.txt", "--drop-rate", "2"],
        ],
    )
    def test_failed_run_leaves_out_file_untouched(self, capsys, tmp_path, argv):
        out_path = tmp_path / "pairs.jsonl"
        out_path.write_bytes(b"keep\n")
        code, out, err = run_cli(capsys, "pair", *argv, "--out", out_path)
        assert code == 1 and out == ""
        assert "error" in json.loads(err)
        assert out_path.read_bytes() == b"keep\n"


class TestAnalyzeCommand:
    def test_fields_and_nulls(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", MINI / "doc_d.txt", "--lexicon", LEXICON, "--min-lines", "1"
        )
        assert code == 0
        record = json.loads(out.splitlines()[0])
        assert set(record) == {"rd", "rep", "overlap", "bleu"}
        assert record["overlap"] is None and record["bleu"] is None
        assert record["rd"] > 0  # pane/pain/name/flame/train rhyme

    def test_overlap_and_bleu_against_references(self, capsys, tmp_path):
        src = tmp_path / "input.txt"
        src.write_text("rain on the window pane tonight\n")
        code, out, _ = run_cli(
            capsys, "analyze", MINI / "doc_d.txt",
            "--lexicon", LEXICON, "--min-lines", "1",
            "--input", src, "--reference", MINI / "doc_d.txt",
        )
        record = json.loads(out.splitlines()[0])
        assert 0.0 < record["overlap"] < 1.0
        assert record["bleu"] == pytest.approx(100.0)

    def test_reference_count_mismatch_is_an_error(self, capsys):
        code, _, err = run_cli(
            capsys, "analyze", MINI / "doc_d.txt",
            "--min-lines", "1", "--reference", MINI / "doc_a.txt",
        )
        assert code == 1
        assert "does not match" in json.loads(err)["error"]


class TestEnhanceCommand:
    def test_enhance_with_corpus_predictor(self, capsys):
        code, out, _ = run_cli(
            capsys, "enhance", MINI / "doc_d.txt",
            "--lexicon", LEXICON, "--corpus", MINI, "--min-lines", "1", "--k", "50",
        )
        assert code == 0
        record = json.loads(out.splitlines()[0])
        assert set(record) == {"doc", "text", "replaced", "rd_before", "rd_after"}
        for line_idx, tok_idx in record["replaced"]:
            assert isinstance(line_idx, int) and isinstance(tok_idx, int)

    def test_window_sets_reported_rhyme_density(self, capsys, tmp_path):
        # "way" rhymes with "day" five words back: outside a window of 1
        verse = tmp_path / "verse.txt"
        verse.write_text("the day is long and the way\nslow go the flow we know\n")
        argv = ["enhance", verse, "--lexicon", LEXICON, "--corpus", MINI]
        _, default, _ = run_cli(capsys, *argv)
        _, wide, _ = run_cli(capsys, *argv, "--window", "15")
        _, narrow, _ = run_cli(capsys, *argv, "--window", "1")
        assert default == wide
        assert json.loads(narrow)["rd_before"] < json.loads(wide)["rd_before"]

    def test_deny_flag_respected(self, capsys, tmp_path):
        # denying the whole predictor vocabulary forces a no-op
        from verseforge.corpus import load_corpus

        deny = tmp_path / "deny.txt"
        vocab = sorted({t for d in load_corpus(MINI, "lyrics") for t in d.all_tokens()})
        deny.write_text("\n".join(vocab))
        code, out, _ = run_cli(
            capsys, "enhance", MINI / "doc_d.txt",
            "--lexicon", LEXICON, "--corpus", MINI,
            "--min-lines", "1", "--deny", deny, "--mode", "best",
        )
        assert code == 0
        record = json.loads(out.splitlines()[0])
        assert record["replaced"] == []
        assert record["rd_after"] == record["rd_before"]


class TestGoldenOutput:
    """stdout on the mini corpus and a punctuated hypothesis batch, byte for
    byte, as recorded in tests/data. Each case's argv is complete: corpus
    split and strip take no lexicon."""

    @pytest.mark.parametrize(
        "golden, argv",
        [
            ("golden_enhance_first.jsonl",
             ["enhance", MINI, "--corpus", MINI, "--mode", "first", "--lexicon", LEXICON]),
            ("golden_enhance_best_deny.jsonl",
             ["enhance", MINI, "--corpus", MINI, "--mode", "best",
              "--deny", PKG_DATA_DIR / "deny_sample.txt", "--lexicon", LEXICON]),
            ("golden_pipeline.jsonl",
             ["pipeline", MINI, "--corpus", MINI, "--kind", "lyrics", "--lexicon", LEXICON]),
            ("golden_analyze.jsonl", ["analyze", MINI, "--lexicon", LEXICON]),
            # Its lines mix PUNCT_CHARS, "...", "can't", "u.s.", "—", "_" and "٣".
            ("golden_rerank_punct.jsonl",
             ["rerank", "--hypotheses", DATA_DIR / "rerank_punct.jsonl", "--lexicon", LEXICON]),
            # doc_c's two-line chorus is dropped.
            ("golden_corpus_split.jsonl", ["corpus", "split", MINI]),
            ("golden_strip_drop.jsonl", ["strip", MINI, "--noise", "drop", "--seed", "3"]),
            ("golden_strip_synonym.jsonl",
             ["strip", MINI, "--noise", "synonym", "--synonym-rate", "0.5", "--seed", "1",
              "--synonyms", PKG_DATA_DIR / "synonyms_sample.tsv"]),
            ("golden_corpus_stats.jsonl", ["corpus", "stats", MINI]),
        ],
    )
    def test_stdout_matches_golden(self, capsys, golden, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        assert out == (DATA_DIR / golden).read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "argv",
        [
            ["pipeline", MINI, "--corpus", MINI, "--kind", "lyrics", "--lexicon", LEXICON],
            ["enhance", MINI, "--corpus", MINI, "--lexicon", LEXICON],
            ["strip", MINI, "--noise", "synonym", "--synonym-rate", "0.5",
             "--synonyms", PKG_DATA_DIR / "synonyms_sample.tsv"],
            ["analyze", MINI, "--lexicon", LEXICON],
            ["rerank", "--hypotheses", DATA_DIR / "rerank_punct.jsonl", "--lexicon", LEXICON],
            ["retrieve", "--query", MINI / "doc_a.txt", "--corpus", MINI, "--k", "5"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_stdout_independent_of_hash_seed(self, argv):
        # Each run is a fresh interpreter, so each hashes strings differently.
        outs = set()
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
            run = subprocess.run(
                [sys.executable, "-m", "verseforge.cli", *map(str, argv)],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert run.returncode == 0 and run.stderr == ""
            outs.add(run.stdout)
        assert len(outs) == 1 and outs.pop()


class TestRerankCommand:
    def test_best_hypothesis_emitted(self, capsys, tmp_path):
        hyps = tmp_path / "hyps.jsonl"
        hyps.write_text(
            '{"rank": 0, "text": "go slow flow <nl> day way play"}\n'
            '{"rank": 1, "text": "one two <nl> three four"}\n'
        )
        code, out, _ = run_cli(capsys, "rerank", "--hypotheses", hyps, "--lexicon", LEXICON)
        record = json.loads(out)
        assert record["rank"] == 0
        assert record["score"] == pytest.approx(record["rd"] - record["rep"])


    @pytest.mark.parametrize(
        "record, problem",
        [
            ('[0, "go slow"]', "JSON object"),
            ('{"text": "go slow"}', "'rank'"),
            ('{"rank": 1}', "'text'"),
            ('{"rank": "1", "text": "go slow"}', "integer"),
            ('{"rank": 1.5, "text": "go slow"}', "integer"),
        ],
    )
    def test_malformed_record_is_a_json_error(self, capsys, tmp_path, record, problem):
        hyps = tmp_path / "hyps.jsonl"
        hyps.write_text('{"rank": 0, "text": "go slow flow"}\n' + record + "\n")
        code, out, err = run_cli(capsys, "rerank", "--hypotheses", hyps)
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error.startswith(f"{hyps}:2: ")
        assert problem in error

    def test_malformed_lexicon_is_a_json_error(self, capsys, tmp_path):
        hyps = tmp_path / "hyps.jsonl"
        hyps.write_text('{"rank": 0, "text": "go slow flow"}\n')
        lexicon = tmp_path / "lex.dict"
        lexicon.write_text(";;; header\nGO  G OW1\nJUSTAWORD\n")
        code, out, err = run_cli(capsys, "rerank", "--hypotheses", hyps, "--lexicon", lexicon)
        assert code == 1 and out == ""
        assert json.loads(err)["error"].startswith(f"{lexicon}:3: ")

    def test_missing_lexicon_is_a_json_error(self, capsys, tmp_path):
        hyps = tmp_path / "hyps.jsonl"
        hyps.write_text('{"rank": 0, "text": "go slow flow"}\n')
        missing = tmp_path / "missing.dict"
        code, out, err = run_cli(capsys, "rerank", "--hypotheses", hyps, "--lexicon", missing)
        assert code == 1 and out == ""
        assert str(missing) in json.loads(err)["error"]


class TestRetrieveCommand:
    def test_requires_a_source(self, capsys, tmp_path):
        query = tmp_path / "query.txt"
        query.write_text("rain\n")
        code, out, err = run_cli(capsys, "retrieve", "--query", query)
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": "retrieve requires --index-dir or --corpus"}

    @pytest.mark.parametrize(
        "extra, clash",
        [
            (["--corpus", MINI], "--corpus"),
            (["--vectors", "/nonexistent.txt"], "--vectors"),
            (["--split-verses"], "--split-verses"),
            (["--kind", "lyrics"], "--kind"),
            (["--kind", "news"], "--kind"),
            (["--corpus", "/nonexistent", "--vectors", "/nonexistent.txt", "--split-verses"],
             "--corpus, --vectors, --split-verses"),
        ],
    )
    def test_index_dir_rejects_corpus_flags(self, capsys, tmp_path, extra, clash):
        # A loaded index would ignore each of these flags.
        idx_dir = tmp_path / "idx"
        query = MINI / "doc_a.txt"
        assert run_cli(capsys, "retrieve", "--query", query, "--corpus", MINI, "--save-index", idx_dir)[0] == 0
        code, out, err = run_cli(
            capsys, "retrieve", "--index-dir", idx_dir, *extra, "--query", query, "--k", "2"
        )
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": f"--index-dir cannot be combined with {clash}"}

    @pytest.mark.parametrize(
        "extra, flag",
        [
            (["--vectors", "/nonexistent.txt"], "--vectors"),
            (["--split-verses"], "--split-verses"),
            (["--kind", "news"], "--kind"),
        ],
    )
    def test_corpus_flags_require_corpus(self, capsys, extra, flag):
        code, out, err = run_cli(capsys, "retrieve", "--query", MINI / "doc_a.txt", *extra)
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": f"{flag} requires --corpus"}

    def test_split_verses_rejects_news_kind(self, capsys):
        code, out, err = run_cli(
            capsys, "retrieve", "--query", MINI / "doc_a.txt", "--corpus", MINI,
            "--split-verses", "--kind", "news",
        )
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": "--split-verses reads a lyrics corpus, not --kind news"}

    def test_kind_defaults_to_lyrics(self, capsys):
        argv = ("retrieve", "--query", MINI / "doc_a.txt", "--corpus", MINI, "--k", "3")
        code, default, _ = run_cli(capsys, *argv)
        assert code == 0 and default
        assert run_cli(capsys, *argv, "--kind", "lyrics")[:2] == (0, default)

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_k_below_one_is_an_error(self, capsys, tmp_path, k):
        # Checked before any index is built or saved.
        idx_dir = tmp_path / "idx"
        code, out, err = run_cli(
            capsys, "retrieve", "--query", MINI / "doc_a.txt", "--corpus", MINI,
            "--k", k, "--save-index", idx_dir,
        )
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": f"--k must be at least 1, got {k}"}
        assert not idx_dir.exists()

    def test_ad_hoc_index_and_persistence(self, capsys, tmp_path):
        query = tmp_path / "query.txt"
        query.write_text("rain on the window pane\n")
        idx_dir = tmp_path / "idx"
        code, out, _ = run_cli(
            capsys, "retrieve", "--query", query, "--corpus", MINI,
            "--k", "2", "--save-index", idx_dir,
        )
        assert code == 0
        results = [json.loads(line) for line in out.splitlines()]
        assert results[0]["id"] == "doc_d"
        assert results[0]["similarity"] > results[1]["similarity"]

        code2, out2, _ = run_cli(capsys, "retrieve", "--query", query, "--index-dir", idx_dir, "--k", "2")
        results2 = [json.loads(line) for line in out2.splitlines()]
        assert [r["id"] for r in results2] == [r["id"] for r in results]
        for a, b in zip(results, results2):
            assert a["similarity"] == pytest.approx(b["similarity"], abs=1e-12)

    def test_loaded_index_saves_byte_identical(self, capsys, tmp_path):
        query = tmp_path / "query.txt"
        query.write_text("rain on the window pane\n")
        built, resaved = tmp_path / "built", tmp_path / "resaved"
        code, out, _ = run_cli(
            capsys, "retrieve", "--query", query, "--corpus", MINI, "--save-index", built
        )
        assert code == 0
        code, out2, _ = run_cli(
            capsys, "retrieve", "--query", query, "--index-dir", built, "--save-index", resaved
        )
        assert code == 0 and out2 == out
        for name in ("vocabulary.tsv", "vectors.txt"):
            assert (resaved / name).read_bytes() == (built / name).read_bytes()

    def test_word_vector_index_cannot_be_saved(self, capsys, tmp_path):
        vectors = tmp_path / "vectors.txt"
        vectors.write_text("rain 1.0 0.0\nnight 0.0 1.0\n")
        idx_dir = tmp_path / "idx"
        code, out, err = run_cli(
            capsys, "retrieve", "--query", MINI / "doc_a.txt", "--corpus", MINI,
            "--vectors", vectors, "--save-index", idx_dir,
        )
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": "only TF-IDF indexes support persistence"}
        assert not idx_dir.exists()

    @pytest.mark.parametrize(
        "file, lineno, line, problem",
        [
            ("vocabulary.tsv", 2, "dog\t1", "not enough values"),
            ("vocabulary.tsv", 1, "cat\tzero\t1", "invalid literal"),
            ("vocabulary.tsv", 2, "dog\t2\t1", "dimension 2, expected 1"),
            ("vocabulary.tsv", 2, "dog\t0\t1", "dimension 0, expected 1"),
            ("vocabulary.tsv", 1, "cat\t-1\t1", "dimension -1, expected 0"),
            ("vocabulary.tsv", 2, "cat\t1\t1", "duplicate term"),
            ("vocabulary.tsv", 1, "cat\t0\t0", "document frequency 0"),
            ("vocabulary.tsv", 2, "dog\t1\t3", "document frequency 3"),
            ("vectors.txt", 2, "d1 2:0.5", "dimension outside"),
            ("vectors.txt", 1, "d0 -1:0.5", "dimension outside"),
            ("vectors.txt", 1, "d0 0:nan", "finite"),
            ("vectors.txt", 2, "d1 1:inf", "finite"),
            ("vectors.txt", 2, "d1 1:-0.5", "non-negative"),
            ("vectors.txt", 1, "d0 0:1e308 1:1e308", "at most 1"),
            ("vectors.txt", 2, "d1 1:1.0000000000000002", "at most 1"),
            ("vectors.txt", 1, "d0 0:1 1:1", "norm above 1"),
            ("vectors.txt", 2, "d1 0:0.8 1:0.6000001", "norm above 1"),
            ("vectors.txt", 1, "d0 0=0.5", "not enough values"),
            ("vectors.txt", 1, "d0 0:x", "could not convert"),
            ("vectors.txt", 1, "d0 0:0.9 0:0.1", "repeated dimension 0"),
            ("vectors.txt", 2, "d1 1:0.6 0:0.1 +1:0.1", "repeated dimension 1"),
        ],
    )
    def test_malformed_index_is_a_json_error(self, capsys, tmp_path, file, lineno, line, problem):
        idx_dir = tmp_path / "idx"
        idx_dir.mkdir()
        files = {"vocabulary.tsv": ["cat\t0\t1", "dog\t1\t1"], "vectors.txt": ["d0 0:1", "d1 1:1"]}
        files[file][lineno - 1] = line
        for name, lines in files.items():
            (idx_dir / name).write_text("\n".join(lines) + "\n")
        query = tmp_path / "query.txt"
        query.write_text("cat\n")
        code, out, err = run_cli(capsys, "retrieve", "--query", query, "--index-dir", idx_dir)
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error.startswith(f"{idx_dir / file}:{lineno}: ")
        assert problem in error

    def test_norm_above_one_is_rejected(self, capsys, tmp_path):
        idx_dir = tmp_path / "idx"
        idx_dir.mkdir()
        (idx_dir / "vocabulary.tsv").write_text("cat\t0\t1\ndog\t1\t1\neel\t2\t1\n")
        query = tmp_path / "query.txt"
        query.write_text("cat dog eel\n")
        argv = ("retrieve", "--query", query, "--index-dir", idx_dir)
        (idx_dir / "vectors.txt").write_text("d0 0:1 1:1 2:1\nd1\n")
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": f"{idx_dir / 'vectors.txt'}:1: vector norm above 1"}
        # a unit vector whose squared norm rounds above 1 still loads
        w = 1 / math.sqrt(3)
        assert w * w * 3 > 1
        (idx_dir / "vectors.txt").write_text(f"d0 0:{w!r} 1:{w!r} 2:{w!r}\nd1\n")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert json.loads(out)["similarity"] == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "rows, lineno, problem",
        [
            ("cat 1.0 0.0\ndog 1.0\n", 2, "1 values, expected 2"),
            ("cat 1.0\n\ndog 1.0 0.0\n", 3, "2 values, expected 1"),
            ("cat 1.0 0.0\ndog 1.0 x\n", 2, "could not convert"),
            ("cat 1.0 nan\n", 1, "finite"),
            ("cat 1.0\ndog\n", 2, "expected 'word v1"),
        ],
    )
    def test_malformed_word_vectors_are_a_json_error(self, capsys, tmp_path, rows, lineno, problem):
        vectors = tmp_path / "vectors.txt"
        vectors.write_text(rows)
        (tmp_path / "corpus").mkdir()
        (tmp_path / "corpus" / "doc.txt").write_text("cat dog\n")
        query = tmp_path / "query.txt"
        query.write_text("cat dog\n")
        code, out, err = run_cli(
            capsys, "retrieve", "--query", query, "--corpus", tmp_path / "corpus", "--vectors", vectors
        )
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error.startswith(f"{vectors}:{lineno}: ")
        assert problem in error

    def test_split_verses_mode(self, capsys, tmp_path):
        query = tmp_path / "query.txt"
        query.write_text("time is money\n")
        code, out, _ = run_cli(
            capsys, "retrieve", "--query", query, "--corpus", MINI, "--split-verses"
        )
        assert code == 0
        assert "#" in json.loads(out.splitlines()[0])["id"]


class TestPipeline:
    def test_run_pipeline_news_input(self, tmp_path):
        cfg = load_config(None, {"corpus_path": str(MINI), "lexicon_path": str(LEXICON), "seed": 4})
        raw = "the storm took the town tonight and the rain would not stop falling down"
        doc = Document(id="news:0", kind="news", lines=tokenize(raw), raw=raw)
        verse, report = run_pipeline(doc, cfg)
        assert verse.lines
        assert set(report) == {
            "rd_before", "rd_after", "rep", "overlap_vs_input", "replaced_positions"
        }
        assert 0.0 <= report["overlap_vs_input"] <= 1.0
        assert report["rd_after"] >= 0.0

    def test_empty_document_fails_at_strip(self):
        cfg = load_config(None, {"corpus_path": str(MINI)})
        doc = Document(id="empty", kind="news", lines=[], raw="")
        with pytest.raises(PipelineError, match="strip: empty input"):
            run_pipeline(doc, cfg)

    def test_cli_deterministic_stdout(self, capsys, tmp_path):
        src = tmp_path / "news.txt"
        src.write_text("the fire spread across the hill town before the rain came down\n")
        argv = [
            "pipeline", src, "--kind", "news", "--corpus", MINI,
            "--lexicon", LEXICON, "--seed", "7",
        ]
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
        record = json.loads(out1)
        assert record["doc"] == "news:0"
        assert "<nl>" in record["text"] or record["text"]

    def test_hypotheses_flow(self, capsys, tmp_path):
        src = tmp_path / "news.txt"
        src.write_text("the night lights shine on the sea\n")
        hyps = tmp_path / "hyps.jsonl"
        hyps.write_text(
            '{"rank": 0, "text": "night light <nl> day way"}\n'
            '{"rank": 1, "text": "x y <nl> p q"}\n'
        )
        code, out, _ = run_cli(
            capsys, "pipeline", src, "--kind", "news", "--corpus", MINI,
            "--lexicon", LEXICON, "--hypotheses", hyps,
        )
        assert code == 0
        report = json.loads(out)
        assert report["overlap_vs_input"] >= 0.0
        # rd_before is the score reranking gave its pick, the same float a
        # second rhyme_density of that verse computes.
        lex = load_lexicon(LEXICON)
        picked = rerank(load_hypotheses(hyps), lex, RhymeConfig())
        assert report["rd_before"] == picked.scored.rd == rhyme_density(picked.verse, lex)

    def test_reconstruction_mode_overlap_vs_original(self, capsys, tmp_path):
        # rap verse in, generator hypotheses reranked, overlap measured
        # against the original lyric
        hyps = tmp_path / "hyps.jsonl"
        hyps.write_text(
            '{"rank": 0, "text": "rain window pane <nl> write away pain '
            '<nl> same game name <nl> light flame"}\n'
            '{"rank": 1, "text": "unrelated words <nl> nothing shared"}\n'
        )
        code, out, _ = run_cli(
            capsys, "pipeline", MINI / "doc_d.txt", "--kind", "lyrics",
            "--corpus", MINI, "--lexicon", LEXICON, "--hypotheses", hyps,
        )
        assert code == 0
        report = json.loads(out)
        # the reconstruction hypothesis reuses the original's vocabulary
        assert report["overlap_vs_input"] == pytest.approx(1.0)
        assert report["rd_after"] >= 0.0

    def test_summary_table_on_stderr(self, capsys, tmp_path):
        src = tmp_path / "news.txt"
        src.write_text("the rain falls on the town\nthe sun rises over the sea\n")
        code, out, err = run_cli(
            capsys, "pipeline", src, "--kind", "news", "--corpus", MINI,
            "--lexicon", LEXICON, "--summary",
        )
        assert code == 0
        assert "±" in err and "Overlap" in err
        assert len(out.splitlines()) == 2

    def test_empty_hypothesis_batch_is_a_rerank_error(self, capsys, tmp_path):
        hyps = tmp_path / "hyps.jsonl"
        hyps.write_text("")
        code, out, err = run_cli(
            capsys, "pipeline", MINI / "doc_a.txt", "--kind", "lyrics",
            "--corpus", MINI, "--hypotheses", hyps,
        )
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "error": "rerank: rerank requires at least one hypothesis", "stage": "rerank"
        }

    def test_config_file_plus_env(self, capsys, tmp_path, monkeypatch):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "corpus_path": str(MINI),
            "lexicon_path": str(LEXICON),
            "noise": "drop",
            "seed": 3,
        }))
        monkeypatch.setenv("VERSEFORGE_CONFIG", str(cfg_path))
        src = tmp_path / "news.txt"
        src.write_text("the flood water rose through the streets of the town\n")
        code, out, _ = run_cli(capsys, "pipeline", src, "--kind", "news")
        assert code == 0 and json.loads(out)["doc"] == "news:0"

    @pytest.mark.parametrize(
        "flags, error",
        [
            (["--noise", "drop", "--drop-rate", "2"],
             "noise: drop_rate must be in [0, 1], got 2.0"),
            (["--noise", "synonym"], "noise: synonym noise requires a synonym lexicon"),
        ],
    )
    def test_noise_failure_is_a_noise_error(self, capsys, tmp_path, flags, error):
        src = tmp_path / "news.txt"
        src.write_text("storm winds rise\n")
        code, out, err = run_cli(
            capsys, "pipeline", src, "--kind", "news", "--corpus", MINI, *flags
        )
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": error, "stage": "noise"}

    @pytest.mark.parametrize("exc_type", [ValueError, RuntimeError])
    def test_predictor_failure_is_an_enhance_error(self, exc_type):
        class FailingPredictor:
            def predict(self, query):
                raise exc_type("predictor down")

        cfg = load_config(None, {"corpus_path": str(MINI), "lexicon_path": str(LEXICON)})
        runtime = replace(PipelineRuntime.from_config(cfg), predictor=FailingPredictor())
        raw = "the rain came down on the town\nthe night was long and the day"
        doc = Document(id="news:0", kind="news", lines=tokenize(raw), raw=raw)
        with pytest.raises(PipelineError) as info:
            run_pipeline(doc, cfg, runtime=runtime)
        assert info.value.stage == "enhance"
        assert str(info.value).endswith(": predictor down")

    def test_hypotheses_require_one_document(self, capsys, tmp_path):
        hyps = tmp_path / "hyps.jsonl"
        hyps.write_text('{"rank": 0, "text": "day way"}\n')
        code, out, err = run_cli(
            capsys, "pipeline", MINI, "--kind", "lyrics", "--corpus", MINI, "--hypotheses", hyps,
        )
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": "--hypotheses requires exactly one input document"}


class TestErrorReporting:
    def test_structured_error_json_on_stderr(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "corpus", "stats", tmp_path / "missing.txt")
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert "error" in payload

    def test_pipeline_stage_in_error(self, capsys, tmp_path):
        src = tmp_path / "stop.txt"
        src.write_text("the of and a\n")  # nothing survives stripping
        code, out, err = run_cli(
            capsys, "pipeline", src, "--kind", "news", "--corpus", MINI, "--noise", "none"
        )
        assert code == 1
        payload = json.loads(err)
        assert payload["stage"] == "rerank"

    @pytest.mark.parametrize(
        "line, lineno, token",
        [("we ride <nl> at night", 1, "<nl>"), ("the <mask> is bright", 2, "<mask>")],
    )
    @pytest.mark.parametrize(
        "command",
        [["pair", "--noise", "none"], ["enhance", "--corpus", MINI, "--lexicon", LEXICON]],
    )
    def test_reserved_token_in_corpus_input(self, capsys, tmp_path, command, line, lineno, token):
        lines = ["we ride at night", "the day is bright", "we go slow", "we hold the flow"]
        lines[lineno - 1] = line
        src = tmp_path / "verse.txt"
        src.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, err = run_cli(capsys, command[0], src, *command[1:])
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "error": f"{src}:{lineno}: reserved token {token!r} in corpus input"
        }

    def test_remote_without_endpoint(self, capsys, tmp_path):
        src = tmp_path / "news.txt"
        src.write_text("storm winds\n")
        code, _, err = run_cli(
            capsys, "pipeline", src, "--kind", "news", "--predictor", "remote"
        )
        assert code == 1
        assert "endpoint" in json.loads(err)["error"]

    @pytest.mark.parametrize("lines_read", [1, 0])
    def test_reader_closing_stdout_early_is_not_an_error(self, tmp_path, lines_read):
        # strip writes one line per document, far more than a pipe buffer
        # holds; the reader takes lines_read of them and closes its end.
        src = tmp_path / "news.txt"
        src.write_text("".join(f"the river bridge opened on day {i}\n" for i in range(10_000)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "verseforge.cli", "strip", str(src), "--kind", "news"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        try:
            for _ in range(lines_read):
                assert proc.stdout.readline().startswith(b'{"doc": "news:0"')
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
            proc.wait(timeout=10)
        assert proc.returncode == 1
        text = err.decode()
        assert '"error"' not in text and "Traceback" not in text
        assert "Exception ignored" not in text


class TestSharedConfigFlags:
    # Every subcommand that takes a resource flag, with the arguments it
    # needs to get as far as loading that resource.
    @pytest.mark.parametrize(
        "command, flag",
        [
            ("analyze", "--lexicon"),
            ("enhance", "--lexicon"),
            ("rerank", "--lexicon"),
            ("pipeline", "--lexicon"),
            ("strip", "--stopwords"),
            ("pair", "--stopwords"),
            ("pipeline", "--stopwords"),
            ("strip", "--synonyms"),
            ("pair", "--synonyms"),
            ("pipeline", "--synonyms"),
            ("enhance", "--deny"),
            ("pipeline", "--deny"),
            ("enhance", "--corpus"),
            ("pipeline", "--corpus"),
            ("retrieve", "--corpus"),
        ],
    )
    def test_missing_path_is_a_json_error(self, capsys, tmp_path, command, flag):
        hyps = tmp_path / "hyps.jsonl"
        hyps.write_text('{"rank": 0, "text": "go slow flow"}\n')
        base = {
            "analyze": [MINI],
            "enhance": [MINI / "doc_d.txt", "--corpus", MINI],
            "rerank": ["--hypotheses", hyps],
            "pipeline": [MINI / "doc_a.txt", "--corpus", MINI],
            "strip": [MINI],
            "pair": [MINI],
            "retrieve": ["--query", MINI / "doc_a.txt"],
        }[command]
        missing = tmp_path / "missing"
        code, out, err = run_cli(capsys, command, *base, flag, missing)
        assert code == 1 and out == ""
        assert "Traceback" not in err
        assert str(missing) in json.loads(err)["error"]

    def test_missing_path_names_its_config_key(self, capsys, tmp_path):
        missing = tmp_path / "missing.dict"
        code, _, err = run_cli(capsys, "analyze", MINI, "--lexicon", missing)
        assert code == 1
        assert json.loads(err) == {"error": f"lexicon_path does not exist: {missing}"}

    def test_enhance_ignores_config_env(self, capsys, tmp_path, monkeypatch):
        argv = ["enhance", MINI / "doc_d.txt", "--lexicon", LEXICON, "--corpus", MINI]
        code, expected, _ = run_cli(capsys, *argv)
        assert code == 0
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{not json")
        monkeypatch.setenv("VERSEFORGE_CONFIG", str(cfg_path))
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        assert out == expected

    def test_enhance_empty_predictor_corpus_is_a_json_error(self, capsys, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "short.txt").write_text("one line\nand another\n")
        code, out, err = run_cli(capsys, "enhance", MINI / "doc_d.txt", "--corpus", corpus)
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": "cannot build predictor from an empty corpus"}


# Each loader with the file (or the files of a directory) it reads. Every
# file starts with a word or field that a kept byte-order mark would change.
BOM_INPUTS = {
    "word list": (lambda d: load_word_list(d / "in.txt"), {"in.txt": "the\na\n"}),
    "document": (lambda d: load_document(d / "in.txt", "lyrics"), {"in.txt": "the cat sat\n"}),
    "prose corpus": (lambda d: load_corpus(d / "in.txt", "news"), {"in.txt": "storm winds\ncalm\n"}),
    "lexicon": (lambda d: load_lexicon(d / "in.dict").entries, {"in.dict": "FOOD  F UW1 D\n"}),
    "synonyms": (lambda d: SynonymLexicon.load(d / "in.tsv"), {"in.tsv": "gold\tore,bullion\n"}),
    "hypotheses": (
        lambda d: load_hypotheses(d / "in.jsonl"), {"in.jsonl": '{"rank": 0, "text": "go <nl> slow"}\n'}
    ),
    "word vectors": (lambda d: load_word_vectors(d / "in.txt"), {"in.txt": "gold 1 0\nsoul 0 1\n"}),
    "index": (load_index, {VOCAB_FILE: "cat\t0\t1\ndog\t1\t1\n", VECTORS_FILE: "d0 0:1\nd1 1:1\n"}),
    "config": (lambda d: load_config(d / "in.json"), {"in.json": '{"seed": 3}'}),
}


@pytest.mark.parametrize("name", BOM_INPUTS)
def test_leading_byte_order_mark_is_ignored(tmp_path, name):
    load, files = BOM_INPUTS[name]
    loaded = []
    for sub, prefix in (("plain", ""), ("bom", "\ufeff")):
        d = tmp_path / sub
        d.mkdir()
        for file_name, text in files.items():
            (d / file_name).write_text(prefix + text, encoding="utf-8")
        loaded.append(load(d))
    assert loaded[0] == loaded[1]


# Each loader behind a command, the files it reads, and the file that holds
# a byte that is not UTF-8 on its second line.
INDEX_FILES = {VOCAB_FILE: b"cat\t0\t1\ndog\t1\t1\n", VECTORS_FILE: b"d0 0:1\nd1 1:1\n"}
BAD_UTF8_INPUTS = {
    "word list": (
        lambda d: ["strip", MINI / "doc_a.txt", "--stopwords", d / "in.txt"],
        {"in.txt": b"the\n\xff\n"}, "in.txt",
    ),
    "deny list": (
        lambda d: ["enhance", MINI / "doc_a.txt", "--corpus", MINI, "--lexicon", LEXICON,
                   "--deny", d / "in.txt"],
        {"in.txt": b"gold\nsoul \xff\n"}, "in.txt",
    ),
    "document": (lambda d: ["strip", d / "in.txt"], {"in.txt": b"the cat\nsat \xff\n"}, "in.txt"),
    "prose corpus": (
        lambda d: ["strip", d / "in.txt", "--kind", "news"], {"in.txt": b"storm\n\xffcalm\n"}, "in.txt"
    ),
    "synonyms": (
        lambda d: ["strip", MINI / "doc_a.txt", "--noise", "synonym", "--synonyms", d / "in.tsv"],
        {"in.tsv": b"gold\tore\n\xff\tx\n"}, "in.tsv",
    ),
    "hypotheses": (
        lambda d: ["rerank", "--hypotheses", d / "in.jsonl", "--lexicon", LEXICON],
        {"in.jsonl": b'{"rank": 0, "text": "go"}\n{"rank": 1, "text": "\xff"}\n'}, "in.jsonl",
    ),
    "word vectors": (
        lambda d: ["retrieve", "--query", MINI / "doc_a.txt", "--corpus", MINI, "--vectors", d / "in.txt"],
        {"in.txt": b"gold 1 0\n\xff 0 1\n"}, "in.txt",
    ),
    "index vocabulary": (
        lambda d: ["retrieve", "--query", MINI / "doc_a.txt", "--index-dir", d],
        {**INDEX_FILES, VOCAB_FILE: b"cat\t0\t1\nd\xffg\t1\t1\n"}, VOCAB_FILE,
    ),
    "index vectors": (
        lambda d: ["retrieve", "--query", MINI / "doc_a.txt", "--index-dir", d],
        {**INDEX_FILES, VECTORS_FILE: b"d0 0:1\nd1 1:\xff\n"}, VECTORS_FILE,
    ),
    "config": (
        lambda d: ["pipeline", MINI / "doc_a.txt", "--config", d / "in.json"],
        {"in.json": b'{"seed": 3,\n "x": "\xff"}'}, "in.json",
    ),
}


@pytest.mark.parametrize("name", BAD_UTF8_INPUTS)
def test_invalid_utf8_names_file_and_line(capsys, tmp_path, name):
    argv, files, bad = BAD_UTF8_INPUTS[name]
    for file_name, data in files.items():
        (tmp_path / file_name).write_bytes(data)
    code, out, err = run_cli(capsys, *argv(tmp_path))
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": f"{tmp_path / bad}:2: invalid UTF-8 byte 0xff (invalid start byte)"
    }
