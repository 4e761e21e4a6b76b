"""``no_grad`` suspends graph recording in its own thread only."""
import threading

import numpy as np

from hxnn import tensor as T


def test_no_grad_in_one_thread_leaves_another_thread_recording():
    entered, trained = threading.Event(), threading.Event()
    seen = {}

    def evaluator():
        w = T.Tensor(np.ones(3), requires_grad=True)
        with T.no_grad():
            entered.set()
            assert trained.wait(10)
            seen["inside"] = T.mul(w, w).requires_grad
        seen["after"] = T.mul(w, w).requires_grad

    thread = threading.Thread(target=evaluator)
    thread.start()
    assert entered.wait(10)  # the other thread is inside no_grad now
    w = T.Tensor(np.arange(3.0), requires_grad=True)
    loss = T.sum_(T.mul(w, w))
    T.backward(loss)
    trained.set()
    thread.join(10)
    assert not thread.is_alive()
    assert loss.requires_grad
    assert np.array_equal(w.grad, 2.0 * np.arange(3.0))
    assert seen == {"inside": False, "after": True}


def test_no_grad_nests_and_restores():
    w = T.Tensor(np.ones(2), requires_grad=True)
    with T.no_grad():
        with T.no_grad():
            assert not T.mul(w, w).requires_grad
        assert not T.mul(w, w).requires_grad
    assert T.mul(w, w).requires_grad
