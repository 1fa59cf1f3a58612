import random

import pytest

import replay


def _log(seed: int, lines: int) -> bytes:
    rng = random.Random(seed)
    return b"".join(
        b"%d %s\n" % (i, bytes(rng.choices(b"abcdef ", k=rng.randrange(0, 40))))
        for i in range(lines)
    )


@pytest.mark.parametrize("lines", [0, 1, 7, 60, 61, 1000])
@pytest.mark.parametrize("parts", [1, 8, 60])
def test_chunks_split_on_line_ends_and_concatenate_back(lines, parts):
    data = _log(lines, lines)
    chunks = replay.split_lines(data, parts)
    assert len(chunks) == parts
    assert b"".join(chunks) == data
    assert all(chunk == b"" or chunk.endswith(b"\n") for chunk in chunks)
    # As even as possible: no chunk more than a line longer than another.
    counts = [chunk.count(b"\n") for chunk in chunks]
    assert max(counts) - min(counts) <= 1


def test_chunker_is_deterministic():
    data = _log(3, 500)
    assert replay.split_lines(data, 60) == replay.split_lines(data, 60)


def test_unterminated_last_line_stays_in_the_last_chunk():
    chunks = replay.split_lines(b"a\nb\nc", 2)
    assert b"".join(chunks) == b"a\nb\nc"
    assert chunks[0].endswith(b"\n")


def test_replay_rebuilds_the_tree_byte_for_byte(tmp_path):
    logs = tmp_path / "run" / "logs"
    for host in ("web1", "db1"):
        (logs / host).mkdir(parents=True)
        (logs / host / "sar.log").write_bytes(_log(len(host), 123))
    (tmp_path / "run" / replay.META_FILE).write_text('{"epoch_us": 5}')
    chunks = replay.chunk_tree(logs, 8)
    live_logs = replay.lay_out_live_tree(logs, tmp_path / "live", chunks)
    assert (tmp_path / "live" / replay.META_FILE).read_text() == '{"epoch_us": 5}'
    assert all(p.stat().st_size == 0 for p in live_logs.glob("*/*.log"))
    for step in range(8):
        replay.append_step(live_logs, chunks, step)
    for path in logs.glob("*/*.log"):
        assert (live_logs / path.parent.name / path.name).read_bytes() == (
            path.read_bytes()
        )
