import trace_differential

# The SHA-256 of the sweep's 34 086 lines, computed at 70886a8.
SWEEP_SHA256 = "841d019c0fd4207162c387aeba493a42b173f347346452a581b971a3a63449ef"


def test_sweep_digest_is_pinned():
    lines = list(trace_differential.sweep_lines())
    assert len(lines) == 34086
    assert trace_differential.digest(lines) == SWEEP_SHA256


def test_against_prints_only_the_lines_that_differ(monkeypatch, capsys):
    ours = ["a", "b", "c", "d"]
    monkeypatch.setattr(trace_differential, "sweep_lines", lambda: iter(ours))
    monkeypatch.setattr(trace_differential, "_lines_at", lambda rev: ["a", "B", "c", "d"])
    assert trace_differential.main(["--against", "REV"]) == 1
    printed = capsys.readouterr().out.splitlines()
    assert [line for line in printed if line[:1] in "+-" and line[:3] not in ("---", "+++")] == ["-B", "+b"]

    monkeypatch.setattr(trace_differential, "_lines_at", lambda rev: list(ours))
    assert trace_differential.main(["--against", "REV"]) == 0
    assert capsys.readouterr().out == "no line differs from REV (4 lines)\n"


def test_script_prints_the_lines_then_the_digest(monkeypatch, capsys):
    monkeypatch.setattr(trace_differential, "sweep_lines", lambda: iter(["x", "y"]))
    assert trace_differential.main([]) == 0
    assert capsys.readouterr().out.splitlines() == ["x", "y", trace_differential.digest(["x", "y"])]
