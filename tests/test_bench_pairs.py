import importlib.util
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _checkout(path: Path) -> Path:
    """A git checkout whose src/ matches its HEAD and which ignores byte-code caches."""
    (path / "src").mkdir(parents=True)
    (path / "src" / "module.py").write_text("")
    (path / ".gitignore").write_text("__pycache__/\n")
    for command in (["init", "-q"], ["add", "-A"],
                    ["-c", "user.name=bench", "-c", "user.email=bench@example.com",
                     "commit", "-qm", "checkout"]):
        subprocess.run(["git", *command], cwd=path, check=True, capture_output=True)
    return path


def test_checkouts_whose_paths_differ_in_length_are_refused(tmp_path, capsys):
    # the path length alone moves peak_rss_mb, so no run starts
    parent, change = _checkout(tmp_path / "parent"), _checkout(tmp_path / "change-longer")
    out = tmp_path / "pairs.json"
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change),
                             "--out", str(out)]) == 1
    message = capsys.readouterr().err
    assert str(parent) in message and str(change) in message
    assert not out.exists()


def test_checkouts_whose_ignored_files_differ_are_refused(tmp_path, capsys):
    # a byte-code cache in one checkout only: under PYTHONDONTWRITEBYTECODE
    # that side skips compiling latgas, so no run starts
    parent, change = _checkout(tmp_path / "parent"), _checkout(tmp_path / "change")
    cache = change / "src" / "__pycache__" / "module.cpython.pyc"
    cache.parent.mkdir()
    cache.write_bytes(b"")
    out = tmp_path / "pairs.json"
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change),
                             "--out", str(out)]) == 1
    assert "src/__pycache__/module.cpython.pyc" in capsys.readouterr().err
    assert not out.exists()
