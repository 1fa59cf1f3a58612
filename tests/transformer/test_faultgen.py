"""Tests for the deterministic log-corruption injector."""

import pytest

from repro.transformer.faultgen import CORRUPTION_KINDS, LogCorruptor

SAMPLE = (
    "# header line\n"
    "alpha one two three\n"
    "bravo four five six\n"
    "charlie seven eight nine\n"
)


@pytest.fixture()
def log_tree(tmp_path):
    root = tmp_path / "tree"
    for host in ("web1", "db1"):
        host_dir = root / host
        host_dir.mkdir(parents=True)
        (host_dir / "a.log").write_text(SAMPLE)
        (host_dir / "b.log").write_text(SAMPLE)
    return root


def tree_bytes(root):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*.log"))
    }


# ----------------------------------------------------------------------
# determinism


def test_same_seed_same_damage(tmp_path, log_tree):
    other = tmp_path / "copy"
    for name, data in tree_bytes(log_tree).items():
        target = other / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(data)
    reports_a = LogCorruptor(seed=42).corrupt_directory(log_tree)
    reports_b = LogCorruptor(seed=42).corrupt_directory(other)
    assert [(r.kind, r.line_number, r.detail) for r in reports_a] == [
        (r.kind, r.line_number, r.detail) for r in reports_b
    ]
    assert tree_bytes(log_tree) == tree_bytes(other)


def test_different_seeds_diverge(log_tree):
    baseline = tree_bytes(log_tree)
    LogCorruptor(seed=1).corrupt_directory(log_tree)
    first = tree_bytes(log_tree)
    assert first != baseline
    # re-damage a fresh copy with another seed
    for name, data in baseline.items():
        (log_tree / name).write_bytes(data)
    LogCorruptor(seed=2).corrupt_directory(log_tree)
    assert tree_bytes(log_tree) != first


# ----------------------------------------------------------------------
# damage classes


def test_every_kind_damages_the_sample(tmp_path):
    for kind in CORRUPTION_KINDS:
        path = tmp_path / f"{kind}.log"
        path.write_text(SAMPLE)
        reports = LogCorruptor(seed=5).corrupt_file(path, kinds=[kind])
        assert [r.kind for r in reports] == [kind]
        assert path.read_bytes() != SAMPLE.encode()


def test_unknown_kind_rejected(tmp_path):
    path = tmp_path / "x.log"
    path.write_text(SAMPLE)
    with pytest.raises(ValueError):
        LogCorruptor().corrupt_file(path, kinds=["set_on_fire"])


def test_strip_header_removes_only_headers(tmp_path):
    path = tmp_path / "x.log"
    path.write_text(SAMPLE)
    LogCorruptor().corrupt_file(path, kinds=["strip_header"])
    lines = path.read_text().splitlines()
    assert "# header line" not in lines
    assert "alpha one two three" in lines


def test_truncate_tail_shortens_file(tmp_path):
    path = tmp_path / "x.log"
    path.write_text(SAMPLE)
    LogCorruptor(seed=3).corrupt_file(path, kinds=["truncate_tail"])
    data = path.read_bytes()
    assert len(data) < len(SAMPLE)
    assert SAMPLE.encode().startswith(data)


def test_duplicate_adds_one_line(tmp_path):
    path = tmp_path / "x.log"
    path.write_text(SAMPLE)
    LogCorruptor(seed=3).corrupt_file(path, kinds=["duplicate"])
    assert len(path.read_bytes().split(b"\n")) == len(SAMPLE.split("\n")) + 1


def test_garbage_breaks_utf8(tmp_path):
    path = tmp_path / "x.log"
    path.write_text(SAMPLE)
    LogCorruptor(seed=3).corrupt_file(path, kinds=["garbage"])
    with pytest.raises(UnicodeDecodeError):
        path.read_bytes().decode("utf-8")


# ----------------------------------------------------------------------
# precise damage helpers


def test_garble_lines_hits_exact_lines(tmp_path):
    path = tmp_path / "x.log"
    path.write_text(SAMPLE)
    reports = LogCorruptor(seed=9).garble_lines(path, [2, 4])
    lines = path.read_text().splitlines()
    assert [r.line_number for r in reports] == [2, 4]
    assert lines[0] == "# header line"
    assert lines[1] == reports[0].detail
    assert lines[2] == "bravo four five six"
    assert lines[3] == reports[1].detail


def test_truncate_line_at_keeps_prefix(tmp_path):
    path = tmp_path / "x.log"
    path.write_text(SAMPLE)
    LogCorruptor().truncate_line_at(path, 3, keep_chars=5)
    assert path.read_text().splitlines()[2] == "bravo"


def test_probability_zero_leaves_tree_untouched(log_tree):
    baseline = tree_bytes(log_tree)
    reports = LogCorruptor(seed=1).corrupt_directory(
        log_tree, probability=0.0
    )
    assert reports == []
    assert tree_bytes(log_tree) == baseline
