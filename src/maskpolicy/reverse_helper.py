"""Each BiLSTM layer's reverse direction in a helper process while training.

A layer's forward and reverse directions share no state until
`lstm.bilstm_sequence` joins their outputs, and threads cannot run them
at once (numpy holds the GIL between BLAS calls). `train_policy` passes
the runner `two_processes()` yields to every layer as its `reverse`: the
reverse direction, its forward and when recording its backward, runs in
one helper process while the calling process runs the forward one, the
same `lstm._direction` on byte-identical inputs, so every result is the
serial path's bit for bit.

The helper is forked (the `fork` context) by the first call that
qualifies (`wanted`): Linux, at least two CPUs to run on, BLAS pinned
to one thread and a process that is not daemonic. Later calls reuse it.
Each request carries its shapes, and arrays go through the pipe as raw
bytes. A request runs under the caller's `np.geterr()`; an exception
raised in the helper is raised again in the caller, and its warnings
are issued again there, at the same call, so filters and `np.errstate`
behave as on the serial path. A dead helper raises one RuntimeError
with its pid and exit code. An exception that escapes the block
discards the helper, whose pipe may hold a half-finished exchange. The
helper exits when its pipe reaches EOF, and is killed at interpreter
exit. One thread at a time holds the block; another gets None.

The helper is a copy of the process as it was at the fork: a later
change to this process's modules, a monkeypatch of `lstm` included, is
not seen there.
"""

from __future__ import annotations

import atexit
import contextlib
import functools
import itertools
import multiprocessing
import os
import signal
import sys
import threading
import warnings

import numpy as np

from . import lstm

# Either one set to 1 pins BLAS to one thread, by vendor.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_helper: _Helper | None = None
# Held by the one thread inside two_processes().
_inside = threading.Lock()

# Requests sent to any helper by this process; tests count them.
requests = 0


def wanted() -> bool:
    """Whether two_processes() runs the reverse directions in the helper.
    Two single-threaded processes need two CPUs; unpinned BLAS would run
    two thread pools on them; a daemonic process may not have children."""
    return (sys.platform.startswith("linux")
            and len(os.sched_getaffinity(0)) >= 2
            and any(os.environ.get(var, "").strip() == "1" for var in BLAS_THREAD_VARS)
            and not multiprocessing.current_process().daemon)


def _reissue(caught) -> None:
    """Issue the helper's warnings again here, each at its own place in
    lstm, through lstm's registry, as the serial path would have."""
    registry = vars(lstm).setdefault("__warningregistry__", {})
    for message, category, filename, lineno in caught:
        warnings.warn_explicit(message, category, filename, lineno, lstm.__name__, registry)


class _Helper:
    def __init__(self):
        ctx = multiprocessing.get_context("fork")
        self.conn, child = ctx.Pipe()
        self.process = ctx.Process(target=_serve, args=(child, self.conn), daemon=True,
                                   name="maskpolicy-reverse")
        self.process.start()
        child.close()
        self.owner = os.getpid()
        self.keys = itertools.count()
        atexit.register(self.stop)

    def stop(self) -> None:
        atexit.unregister(self.stop)
        if self.owner == os.getpid():  # not a forked copy of the owner
            self.conn.close()
            self.process.kill()
            self.process.join()

    def direction(self, rows, index, lengths, is_live, W, bias, record):
        """lstm._reverse_here in the helper: sends the request now and
        returns the thunk that receives its result."""
        key = next(self.keys)
        self._send(("forward", key, record),
                   rows, index, np.asarray(lengths, dtype=np.intp), W, bias)

        def finish():
            out = self._receive(np.empty((*index.shape, len(bias) // 4)))[0]
            if not record:
                return out, None
            dx_shape = (int(np.count_nonzero(is_live)), rows.shape[1])
            return out, functools.partial(self._backward, key, dx_shape, W.shape)

        return finish

    def _backward(self, key, dx_shape, w_shape, grad, order, _states):
        # The helper reads the states from its own copy of them.
        self._send(("backward", key), grad, np.asarray(order, dtype=np.intp))
        return lambda: self._receive(np.empty(dx_shape), np.empty(w_shape), np.empty(w_shape[0]))

    def _send(self, header, *arrays) -> None:
        global requests
        requests += 1
        arrays = [np.ascontiguousarray(a) for a in arrays]
        with self._alive():
            self.conn.send((header, np.geterr(), [(a.dtype.str, a.shape) for a in arrays]))
            for a in arrays:
                self.conn.send_bytes(a)

    def _receive(self, *arrays):
        """The reply to the last request, read whole into `arrays`; then
        its warnings are issued and its exception, if any, raised."""
        with self._alive():
            caught, error = self.conn.recv()
            if error is None:
                for a in arrays:
                    _receive_into(self.conn, a)
        _reissue(caught)
        if error is not None:
            raise error
        return arrays

    @contextlib.contextmanager
    def _alive(self):
        """A failed pipe (EOF, reset or broken) as the helper's death."""
        try:
            yield
        except (EOFError, OSError) as e:
            self.process.join(timeout=1)
            raise RuntimeError(f"the reverse helper process (pid {self.process.pid}) died, "
                               f"exit code {self.process.exitcode}") from e


def _receive_into(conn, a: np.ndarray) -> None:
    size = conn.recv_bytes_into(a.reshape(-1).view(np.uint8))
    if size != a.nbytes:
        raise RuntimeError(f"reverse helper sent {size} bytes for {a.nbytes}")


def _serve(conn, parent_end) -> None:
    """The helper's loop: one request at a time until the pipe's EOF."""
    parent_end.close()
    # An interrupt is the parent's to handle; it kills the helper.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    recorded = {}
    while True:
        try:
            (kind, key, *rest), err, specs = conn.recv()
        except EOFError:
            return
        arrays = [np.empty(shape, dtype) for dtype, shape in specs]
        for a in arrays:
            _receive_into(conn, a)
        results, error = (), None
        with warnings.catch_warnings(record=True) as caught, np.errstate(**err):
            warnings.simplefilter("always")
            try:
                if kind == "forward":
                    rows, index, lengths, W, bias = arrays
                    is_live = lengths > np.arange(len(index))[:, None]
                    out, back = lstm._direction(rows, index, lengths.tolist(), is_live, W, bias,
                                                True, *rest)
                    if back is not None:
                        recorded[key] = back, out
                    results = (out,)
                else:
                    back, out = recorded.pop(key)
                    grad, order = arrays
                    results = back(grad, order.tolist(), out)
            except Exception as e:  # raised again in the parent
                error = e
        conn.send(([(w.message, w.category, w.filename, w.lineno) for w in caught], error))
        for a in results:
            conn.send_bytes(np.ascontiguousarray(a))


@contextlib.contextmanager
def two_processes():
    """The block's `reverse` runner for every bilstm_sequence call: the
    helper's if `wanted()` and no other thread is inside, else None."""
    global _helper
    if not wanted() or not _inside.acquire(blocking=False):
        yield None
        return
    try:
        if _helper is None or _helper.owner != os.getpid():
            _helper = _Helper()
        try:
            yield _helper.direction
        except BaseException:
            _helper, helper = None, _helper
            helper.stop()
            raise
    finally:
        _inside.release()
