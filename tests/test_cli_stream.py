"""The CLI writes its output as it makes it.

* ``covers`` at the CLI's bound (the seed-1 pool's ``p12-00``, 5 MB of
  JSON): the bytes are ``json.dumps``'s, the request's ``tracemalloc``
  peak stays below the output's length (the whole text held before it
  was printed took 1.6 times that), no single write exceeds a quarter
  of the output, and the text form is the handler's lines joined as
  they were before the blocks.
* Exit codes mid-stream: running out of memory is exit code 3 with one
  line on stderr, whether it happens while computing or while writing;
  Ctrl-C after the first write is 130; a reader that closes its pipe
  after 4 KiB leaves exit code 1 and no traceback.
"""

import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tracemalloc

import pytest

import lyubeznik.cli as cli
from lyubeznik.cli import _request, main
from lyubeznik.cmdline import read_argv
from lyubeznik.subsets import tables_for

MIXED = "vars x y z\ngen x^2*y\ngen y^2*z\ngen x^3\ngen y^3\ngen z^3\n"


class CountingSink:
    """A stdout that keeps only a digest of what it is sent, its length
    and the length of the largest write."""

    def __init__(self) -> None:
        self.digest = hashlib.sha256()
        self.length = self.largest = 0

    def write(self, text: str) -> int:
        self.digest.update(text.encode())
        self.length += len(text)
        self.largest = max(self.largest, len(text))
        return len(text)

    def flush(self) -> None:
        pass


class FailingSink:
    """A stdout that keeps its first ``writes`` writes and raises
    ``error`` on the next one."""

    def __init__(self, writes: int, error: type[BaseException]) -> None:
        self.kept: list[str] = []
        self.writes, self.error = writes, error

    def write(self, text: str) -> int:
        if len(self.kept) == self.writes:
            raise self.error
        self.kept.append(text)
        return len(text)

    def flush(self) -> None:
        pass


def run_into(sink, argv) -> int:
    with contextlib.redirect_stdout(sink):
        return main(list(argv))


def same_text(out: str, expected: str) -> bool:
    """Whether two long texts are equal; a plain ``==`` between them
    would have pytest diff megabytes when they are not."""
    return out == expected


@pytest.fixture
def mixed_path(tmp_path):
    path = tmp_path / "mixed.ideal"
    path.write_text(MIXED)
    return str(path)


# -- covers at the CLI's bound ------------------------------------------------

def test_covers_json_streams_at_the_cli_bound(pool):
    path = str(pool[0] / "p12-00.ideal")
    argv = ["covers", path, "--format", "json"]
    buffer = io.StringIO()
    assert run_into(buffer, argv) == 0
    out = buffer.getvalue()
    reference = json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
    assert same_text(out, reference)
    del buffer, out
    # a cold request: the ideal's subset and cover tables are built again
    tables_for.cache_clear()
    sink = CountingSink()
    tracemalloc.start()
    try:
        assert run_into(sink, argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.digest.hexdigest() == hashlib.sha256(
        reference.encode()).hexdigest()
    assert sink.length == len(reference) > 4_000_000
    assert peak < sink.length, (peak, sink.length)
    assert sink.largest <= sink.length / 4, (sink.largest, sink.length)


def test_covers_text_is_the_lines_joined(pool):
    path = str(pool[0] / "p12-00.ideal")
    _, text = _request(read_argv(["covers", path]))
    lines = [line for block in text() for line in block]
    buffer = io.StringIO()
    assert run_into(buffer, ["covers", path]) == 0
    assert same_text(buffer.getvalue(), "\n".join(lines) + "\n")
    assert len(lines) > 12


# -- exit codes mid-stream ----------------------------------------------------

def test_out_of_memory_in_a_handler_is_one_line_and_exit_3(capsys, mixed_path,
                                                          monkeypatch):
    def exhausted(args, ideal, ordered):
        raise MemoryError
    monkeypatch.setattr(cli, "_cmd_covers", exhausted)
    code = main(["covers", "--format", "json", mixed_path])
    assert (code, *capsys.readouterr()) == (
        3, "", "lyubeznik: error: out of memory\n")


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("error,code,message", [
    (MemoryError, 3, "lyubeznik: error: out of memory\n"),
    (KeyboardInterrupt, 130, "lyubeznik: interrupted\n")])
def test_an_error_while_writing_leaves_the_first_write(capsys, mixed_path,
                                                       fmt, error, code,
                                                       message):
    argv = ["covers", "--format", fmt, mixed_path]
    whole = io.StringIO()
    assert run_into(whole, argv) == 0
    sink = FailingSink(1, error)
    try:
        assert run_into(sink, argv) == code
    except KeyboardInterrupt:
        # let it not end the whole test session
        pytest.fail("the interrupt escaped main()")
    assert capsys.readouterr().err == message
    assert len(sink.kept) == 1
    assert whole.getvalue().startswith(sink.kept[0])
    assert len(sink.kept[0]) < len(whole.getvalue())


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_a_pipe_closed_mid_stream_exits_one_without_a_traceback(pool, fmt):
    # the output (5 MB of JSON, 320 KB of text) is larger than a pipe
    # holds, so the command is still writing when the reader goes away
    path = str(pool[0] / "p12-00.ideal")
    proc = subprocess.Popen([sys.executable, "-m", "lyubeznik.cli", "covers",
                             "--format", fmt, path],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    head = proc.stdout.read(4096)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait() == 1
    assert len(head) == 4096
    assert "Traceback" not in err and "Exception ignored" not in err, err
