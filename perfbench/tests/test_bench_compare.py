"""compare.py refuses runs whose kernel backends differ."""

import json

from compare import main


def write_run(path, backend, wall):
    meta = {"workload": "verify-all", "backend": backend}
    result = {"correct": True, "attempted": 1, "failed": 0,
              "metrics": {"wall_s": {"value": wall, "unit": "s"}}}
    path.write_text(f"meta {json.dumps(meta)}\n{json.dumps(result)}\n")
    return str(path)


def test_same_backend_compares(tmp_path, capsys):
    a = write_run(tmp_path / "a.txt", "pure", 1.0)
    b = write_run(tmp_path / "b.txt", "pure", 0.5)
    assert main([a, b]) == 0
    assert "-50.0%" in capsys.readouterr().out


def test_different_backends_are_refused(tmp_path, capsys):
    a = write_run(tmp_path / "a.txt", "pure", 1.0)
    b = write_run(tmp_path / "b.txt", "compiled", 0.1)
    assert main([a, b]) == 2
    assert "refusing" in capsys.readouterr().err
