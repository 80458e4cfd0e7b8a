"""Documentation system: coverage gate, API/DSE builds, link checker."""

from __future__ import annotations

import importlib.util
import json
import os
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(script: str):
    path = os.path.join(REPO, "scripts", script)
    spec = importlib.util.spec_from_file_location(script[:-3], path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def check_docstrings():
    return _load("check_docstrings.py")


@pytest.fixture(scope="module")
def build_docs():
    return _load("build_docs.py")


@pytest.fixture(scope="module")
def check_links():
    return _load("check_docs_links.py")


@pytest.fixture(scope="module")
def fill_experiments():
    return _load("fill_experiments.py")


class TestDocstringGate:
    def test_coverage_meets_pyproject_floor(self, check_docstrings):
        """src/repro stays above the [tool.interrogate] fail-under."""
        floor = check_docstrings.read_fail_under(
            os.path.join(REPO, "pyproject.toml")
        )
        results = check_docstrings.collect(check_docstrings.TARGET)
        assert results, "collector found nothing — wrong target?"
        coverage = 100.0 * sum(ok for _, ok in results) / len(results)
        missing = [name for name, ok in results if not ok]
        assert coverage >= floor, (
            f"docstring coverage {coverage:.1f}% < floor {floor:.1f}%; "
            f"missing: {missing[:10]}"
        )

    def test_gate_counts_known_objects(self, check_docstrings, tmp_path):
        """Counting rules: modules/classes/public defs, no privates."""
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text('"""pkg."""\n')
        (pkg / "mod.py").write_text(
            '"""mod."""\n'
            "def documented():\n"
            '    """Yes."""\n'
            "def undocumented():\n"
            "    pass\n"
            "def _private():\n"
            "    pass\n"
            "class K:\n"
            '    """K."""\n'
            "    def m(self):\n"
            "        pass\n"
            "    def __init__(self):\n"
            "        pass\n"
        )
        results = dict(check_docstrings.collect(str(pkg)))
        assert results == {
            "pkg": True,
            "pkg.mod": True,
            "pkg.mod.documented": True,
            "pkg.mod.undocumented": False,
            "pkg.mod.K": True,
            "pkg.mod.K.m": False,
        }

    def test_cli_passes_on_repo(self, check_docstrings, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["check_docstrings.py"])
        assert check_docstrings.main() == 0
        assert "PASSED" in capsys.readouterr().out


class TestFallbackBuild:
    def test_builds_full_reference_into_tmpdir(self, build_docs, tmp_path):
        out = tmp_path / "api"
        n = build_docs.build_fallback(str(out))
        assert n > 50  # the whole package, not a subset
        index = (out / "index.html").read_text()
        assert "repro.density.poisson" in index
        page = (out / "repro.density.poisson.html").read_text()
        # module docstring, class and method made it into the page
        assert "SpectralWorkspace" in page
        assert "bit-identical" in page
        assert "def solve(" in page

    def test_pages_escape_html(self, build_docs, tmp_path):
        """Docstrings containing markup must not inject raw HTML."""
        mod = tmp_path / "m.py"
        mod.write_text('"""Uses <angle> brackets & ampersands."""\n')
        html_page = build_docs._render_module("m", str(mod))
        assert "&lt;angle&gt;" in html_page
        assert "&amp;" in html_page

    def test_main_reports_success(self, build_docs, tmp_path, monkeypatch,
                                  capsys):
        monkeypatch.setattr(
            sys, "argv",
            ["build_docs.py", "--out", str(tmp_path / "o"),
             "--force-fallback", "--skip-dse"],
        )
        assert build_docs.main() == 0
        assert "fallback renderer" in capsys.readouterr().out
        assert (tmp_path / "o" / "index.html").is_file()


class TestDseDashboardBuild:
    def test_builds_from_golden_database(self, build_docs, tmp_path):
        """The docs build renders the DSE report from tests/golden/dse."""
        out = tmp_path / "dse"
        index = build_docs.build_dse_report(str(out))
        assert os.path.isfile(index)
        page = open(index, encoding="utf-8").read()
        # golden sweep trends and bench regression deltas both render
        assert "inflation.alpha" in page
        assert "Bench history" in page
        assert "<svg" in page

    def test_main_builds_dashboard_by_default(self, build_docs, tmp_path,
                                              monkeypatch, capsys):
        monkeypatch.setattr(
            sys, "argv",
            ["build_docs.py", "--out", str(tmp_path / "api"),
             "--force-fallback", "--dse-out", str(tmp_path / "dse")],
        )
        assert build_docs.main() == 0
        assert "DSE dashboard" in capsys.readouterr().out
        assert (tmp_path / "dse" / "index.html").is_file()


class TestLinkChecker:
    def test_repo_docs_are_clean(self, check_links, capsys):
        """Every intra-doc link in the repo's markdown resolves."""
        assert check_links.main([]) == 0
        assert "all intra-doc links resolve" in capsys.readouterr().out

    def test_catches_broken_target_and_anchor(self, check_links, tmp_path,
                                              capsys):
        good = tmp_path / "good.md"
        good.write_text("# Real Heading\n\nbody\n")
        bad = tmp_path / "bad.md"
        bad.write_text(
            "[gone](missing.md)\n"
            "[no anchor](good.md#fake-heading)\n"
            "[ok](good.md#real-heading)\n"
            "[self](#nope)\n"
        )
        assert check_links.main([str(bad)]) == 3
        out = capsys.readouterr().out
        assert "missing target missing.md" in out
        assert "no heading for good.md#fake-heading" in out
        assert "no heading for #nope" in out

    def test_skips_code_fences_and_external(self, check_links, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text(
            "[ext](https://example.com/x)\n"
            "```\n[fenced](nowhere.md)\n```\n"
        )
        assert check_links.main([str(doc)]) == 0

    def test_slugify_matches_github_rules(self, check_links):
        assert check_links.slugify("5e. Numeric invariants") == \
            "5e-numeric-invariants"
        assert check_links.slugify("`repro dse` quickstart") == \
            "repro-dse-quickstart"


class TestFillExperiments:
    def test_load_rows_accepts_both_shapes(self, fill_experiments, tmp_path):
        """Bare row lists and bench --out payload dicts both load."""
        rows = [{"design": "d", "placer": "Ours", "metrics": {"#DRVs": 3.0}}]
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(rows))
        payload = tmp_path / "payload.json"
        payload.write_text(json.dumps({"rows": rows, "supervisor": {}}))
        for path in (bare, payload):
            loaded = fill_experiments.load_rows(str(path))
            assert len(loaded) == 1
            assert loaded[0].placer == "Ours"
            assert loaded[0].metrics["#DRVs"] == 3.0

    def test_load_rows_rejects_unknown_dict(self, fill_experiments, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"not_rows": []}))
        with pytest.raises(SystemExit, match="no 'rows' key"):
            fill_experiments.load_rows(str(bad))

    def test_fill_block_replaces_only_marked_region(self, fill_experiments):
        text = "pre\n<!-- fill:t -->\nOLD\n<!-- /fill:t -->\npost"
        out = fill_experiments.fill_block(text, "t", "NEW")
        assert out == "pre\n<!-- fill:t -->\nNEW\n<!-- /fill:t -->\npost"
        with pytest.raises(SystemExit, match="missing"):
            fill_experiments.fill_block(text, "absent", "x")

    def test_experiments_md_is_in_sync(self, fill_experiments):
        """Committed EXPERIMENTS.md matches a fresh regeneration."""
        text = open(fill_experiments.EXPERIMENTS).read()
        t1 = fill_experiments.load_rows(os.path.join(REPO, "results",
                                                     "table1.json"))
        body = fill_experiments.ratio_table(
            t1, "Ours", keys=("DRWL", "#DRVias", "#DRVs", "PT", "RT"),
            bold="#DRVs")
        assert fill_experiments.fill_block(text, "table1", body) == text
