"""State sources that cannot seek: a pipe and a named FIFO, each filled by a
thread, so that a reader in the same process can open them by path."""

import contextlib
import os
import threading


@contextlib.contextmanager
def unseekable(kind, raw, workdir):
    """A path that reads raw once, through a pipe or a FIFO made in workdir."""
    if kind == "pipe":
        read_fd, write_fd = os.pipe()
        path = f"/dev/fd/{read_fd}"
    else:
        path = str(workdir / "state.fifo")
        os.mkfifo(path)

    def feed():
        # a FIFO's open for writing waits until the reader opens it
        fd = write_fd if kind == "pipe" else os.open(path, os.O_WRONLY)
        with contextlib.suppress(BrokenPipeError), open(fd, "wb") as fh:
            fh.write(raw)

    # a daemon: a FIFO that is never opened leaves its writer waiting
    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        yield path
    finally:
        if kind == "pipe":
            os.close(read_fd)  # a writer still blocked gets EPIPE
        writer.join(10)
    assert not writer.is_alive()
