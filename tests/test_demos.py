"""Each demo imports cleanly, so a public name it uses cannot vanish
unnoticed; importing does not run main().  The inversion demos also run
main(), so a changed signature that they call fails here too."""

import importlib.util
import pathlib

import pytest

DEMO_DIR = pathlib.Path(__file__).resolve().parent.parent / "demos"
DEMOS = sorted(DEMO_DIR.glob("*.py"))


def load(path):
    spec = importlib.util.spec_from_file_location("demo_" + path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_imports(path):
    assert callable(load(path).main)


@pytest.mark.parametrize("name,last_line", [
    ("envelopes_and_inversion", "after pruning"),
    ("symmetry_breaking", "combined"),
])
def test_inversion_demo_runs(name, last_line, tmp_path, monkeypatch, capsys):
    module = load(DEMO_DIR / (name + ".py"))
    monkeypatch.setattr(module, "OUT_DIR", str(tmp_path))
    module.main()
    assert list(tmp_path.glob("*.csv"))
    assert capsys.readouterr().out.splitlines()[-1].startswith(last_line)
