"""M1 — substrate micro-benchmarks (true pytest-benchmark loops).

These are not from the paper; they characterise the simulator itself so
experiment wall-times are explainable: DES event throughput, RMI round-trip
cost, the inner CG solve and its matvec kernels, the coupled-row product,
the direct inner solve, message-size accounting.
"""

import math
import os
import timeit
from functools import partial

import numpy as np
import pytest
from scipy.sparse._sparsetools import csr_matvec, dia_matvec

from repro.des import Simulator
from repro.experiments.config import optimal_overlap
from repro.net import Network, UniformLinkModel
from repro.numerics import BlockDecomposition, CgOperator, Poisson2D
from repro.numerics.cg import matvec_kernel
from repro.rmi import RemoteObject, RmiRuntime, remote
from repro.util.serialization import measured_size


@pytest.mark.benchmark(group="micro")
def test_des_event_throughput(benchmark):
    def run():
        sim = Simulator()

        def ticker(env):
            for _ in range(10_000):
                yield env.timeout(1.0)

        sim.process(ticker(sim))
        sim.run()
        return sim.event_count

    events = benchmark(run)
    assert events >= 10_000


class Echo(RemoteObject):
    @remote
    def echo(self, x):
        return x


@pytest.mark.benchmark(group="micro")
def test_rmi_roundtrip_cost(benchmark):
    def run():
        sim = Simulator()
        net = Network(sim, link_model=UniformLinkModel(latency=1e-4))
        a, b = net.new_host("a"), net.new_host("b")
        server = RmiRuntime(net, b, 5000)
        client = RmiRuntime(net, a, 5000)
        stub = server.serve(Echo(), "echo")

        def caller(env):
            for i in range(500):
                yield client.call(stub, "echo", i)

        p = sim.process(caller(sim))
        sim.run(until=p)
        return server.served

    assert benchmark(run) == 500


def _strip(n: int, peers: int, index: int):
    """Block ``index`` of the ledger's ``(n, peers)`` Poisson decomposition."""
    prob = Poisson2D.manufactured(n)
    d = BlockDecomposition(prob.A, prob.b, nblocks=peers, line=n,
                           overlap=optimal_overlap(n, peers))
    return d.blocks[index]


def _csr_kernel(A):
    """The CSR sibling arm: scipy's ``csr_matvec`` prebound on ``A``."""
    return partial(csr_matvec, *A.shape, A.indptr, A.indices, A.data)


@pytest.mark.benchmark(group="micro")
def test_cg_solve_cost(benchmark):
    # the fig7_column quick interior strip: n=96, 8 blocks, overlap 6
    blk = _strip(96, 8, 4)
    op = CgOperator(blk.A_local)
    assert op.n == 2304

    result = benchmark(op.solve, blk.b_local)
    assert result.converged


#: (n, peers) of the strips the perf ledger solves
LEDGER_STRIPS = [(96, 8), (128, 8), (40, 10), (64, 16), (256, 8), (256, 16)]


def _paired(base, arm, number: int, rounds: int = 15):
    """Median µs per call of each arm and median arm/base ratio over
    ``rounds`` back-to-back pairs — a burst of load on a shared box
    skews one pair, not the median."""
    pairs = []
    for _ in range(rounds):
        t_base = timeit.timeit(base, number=number)
        t_arm = timeit.timeit(arm, number=number)
        pairs.append((t_base, t_arm, t_arm / t_base))
    t_base, t_arm, ratio = np.median(np.array(pairs), axis=0)
    return t_base / number * 1e6, t_arm / number * 1e6, float(ratio)


def test_cg_kernel_dia_vs_csr(record_table):
    """CSR vs DIA sibling arms: scipy's two kernels on the ledger's strips
    (``CgOperator.matvec``).  CG solves on a strip run in its eigenbasis and
    multiply nothing (see ``test_spectral_cg_vs_sparse_basis``); the kernel
    serves ``solve_direct``'s residual check (the ``direct16`` workload)
    and the heat and Jacobi apps' steps."""
    lines = [f"CG matvec kernels, DIA vs CSR (nproc={os.cpu_count()}; "
             "medians of 15 back-to-back timeit pairs, y zeroed each call)",
             f"{'strip (n, peers, block)':<26}{'rows':>7}{'csr_us':>9}"
             f"{'dia_us':>9}{'dia/csr':>9}"]
    ratios = {}
    for n, peers in LEDGER_STRIPS:
        for index in (0, peers // 2):
            A = _strip(n, peers, index).A_local
            rows = A.shape[0]
            dia = matvec_kernel(A)
            assert dia.func is dia_matvec
            csr = _csr_kernel(A)
            x = np.random.default_rng(rows).standard_normal(rows)
            y = np.empty(rows)

            def arm(kernel):
                def call():
                    y.fill(0.0)
                    kernel(x, y)
                return call

            csr_us, dia_us, ratio = _paired(arm(csr), arm(dia),
                                            number=max(50, 1_000_000 // rows))
            ratios[n, peers, index] = ratio
            lines.append(f"{str((n, peers, index)):<26}{rows:>7}"
                         f"{csr_us:>9.2f}{dia_us:>9.2f}{ratio:>9.3f}")

    record_table("cg_kernel", "\n".join(lines))
    # the kernel choice is a speed-up, never a slow-down, on the (96, 8)
    # strips
    assert ratios[96, 8, 0] < 1.0 and ratios[96, 8, 4] < 1.0


def test_direct_solve_superlu_vs_separable(record_table):
    """The direct inner solve's sibling arms on the ledger's strips: a
    SuperLU factorization under its symmetric ordering (minimum degree on
    the pattern of A + Aᵀ), built here, against
    ``CgOperator.solve_direct``'s fast diagonalization.  Both arms run the
    same residual matvec."""
    from scipy.sparse.linalg import splu

    lines = [f"Direct strip solves, fast diagonalization vs SuperLU "
             f"(nproc={os.cpu_count()}; medians of 15 back-to-back timeit "
             "pairs, each with one residual matvec)",
             f"{'strip (n, peers, block)':<26}{'rows':>7}{'lu_us':>9}"
             f"{'fd_us':>9}{'fd/lu':>8}{'lu_resid':>11}{'fd_resid':>11}"]
    ratios = {}
    for n, peers in LEDGER_STRIPS:
        for index in (0, peers // 2):
            blk = _strip(n, peers, index)
            A, b = blk.A_local, blk.b_local
            rows = A.shape[0]
            op = CgOperator(A)
            lu = splu(A.to_scipy().tocsc(), permc_spec="MMD_AT_PLUS_A")
            out = np.empty(rows)

            def superlu():
                return op.matvec(lu.solve(b), out)

            lu_resid = np.linalg.norm(b - A @ lu.solve(b)) / np.linalg.norm(b)
            fd_resid = (np.linalg.norm(b - A @ op.solve_direct(b).x)
                        / np.linalg.norm(b))
            lu_us, fd_us, ratio = _paired(superlu, partial(op.solve_direct, b),
                                          number=max(5, 100_000 // rows))
            ratios[n, peers, index] = ratio
            lines.append(f"{str((n, peers, index)):<26}{rows:>7}"
                         f"{lu_us:>9.1f}{fd_us:>9.1f}{ratio:>8.3f}"
                         f"{lu_resid:>11.2e}{fd_resid:>11.2e}")
            assert fd_resid <= 10.0 * lu_resid
    record_table("direct_solve", "\n".join(lines))
    # a speed-up on both of the strips the direct16 workload solves
    assert ratios[256, 8, 0] < 1.0 and ratios[256, 8, 4] < 1.0


def test_strip_iteration_full_vs_coupled(record_table):
    """The host work around a strip's inner solve, two sibling arms on the
    ledger's strips: the full-strip plumbing (assemble every rhs row, key
    the memo on the whole rhs, copy the replayed x and the old owned
    iterate) against ``StripTask``'s boundary-sized path (rebuild the
    coupled rows, key on them, view the old iterate)."""
    from repro.apps import PoissonTask
    from repro.p2p import TaskContext

    lines = [f"Strip iteration plumbing around the solve, full strip vs "
             f"coupled rows (nproc={os.cpu_count()}; medians of 15 "
             "back-to-back timeit pairs, memo hit)",
             f"{'strip (n, peers, block)':<26}{'rows':>7}{'coupled':>9}"
             f"{'full_us':>9}{'rows_us':>9}{'rows/full':>10}"]
    ratios = {}
    for n, peers in LEDGER_STRIPS:
        for index in (0, peers // 2):
            task = PoissonTask()
            task.setup(TaskContext("bench", index, peers, {
                "n": n, "overlap": optimal_overlap(n, peers)}))
            blk = task.blk
            rows = blk.n_ext
            task.ext[:] = np.random.default_rng(rows).standard_normal(
                task.ext.size)
            x = np.random.default_rng(rows + 1).standard_normal(rows)
            x.flags.writeable = False
            rhs, old = np.empty(rows), np.empty(blk.n_owned)
            full_key = (blk.b_local - blk.B_coupling @ task.ext).tobytes()
            rows_key = task._assemble_rhs()[task._rows].tobytes()

            def full():
                blk.B_coupling.matvec_into(task.ext, rhs)
                np.subtract(blk.b_local, rhs, out=rhs)
                assert rhs.tobytes() == full_key
                replay = x.copy()
                np.copyto(old, blk.owned_of(x))
                return replay

            def coupled():
                task._assemble_rhs()
                assert task._coupled_rhs.tobytes() == rows_key
                return blk.owned_of(x)

            full()
            assert task._assemble_rhs().tobytes() == rhs.tobytes()
            full_us, rows_us, ratio = _paired(
                full, coupled, number=max(50, 1_000_000 // rows))
            ratios[rows] = ratio
            lines.append(f"{str((n, peers, index)):<26}{rows:>7}"
                         f"{task._rows.size:>9}{full_us:>9.2f}"
                         f"{rows_us:>9.2f}{ratio:>10.3f}")
    record_table("strip_iteration", "\n".join(lines))
    # direct16's interior strips are where the saving is
    assert ratios[16384] < 1.0


def test_coupled_rows_product_vs_scipy(record_table):
    """The rhs update's product, two sibling arms on the ledger's CG
    strips: the former ``csr_matvec_into`` — zero the buffer, then scipy's
    ``csr_matvec`` on a scipy matrix's arrays — against
    ``CsrMatrix.matvec_into``, on the coupled rows of each strip's
    ``B_coupling``, the one multiply a Figure 7 iteration makes.  Both give
    the same bytes."""
    from repro.apps import PoissonTask
    from repro.p2p import TaskContext

    lines = [f"Coupled-row products, CsrMatrix vs scipy "
             f"(nproc={os.cpu_count()}; medians of 15 back-to-back timeit "
             "pairs)",
             f"{'strip (n, peers, block)':<26}{'rows':>7}{'scipy_us':>10}"
             f"{'repro_us':>10}{'ratio':>7}"]
    ratios = {}
    for n, peers in LEDGER_STRIPS:
        for index in (0, peers // 2):
            task = PoissonTask()
            task.setup(TaskContext("bench", index, peers, {
                "n": n, "overlap": optimal_overlap(n, peers)}))
            B, ext = task._B_rows, task.ext
            ext[:] = np.random.default_rng(n + index).standard_normal(ext.size)
            S = B.to_scipy()
            rows = B.shape[0]
            y, out = np.empty(rows), np.empty(rows)

            def scipy_arm():
                y[:] = 0.0
                csr_matvec(S.shape[0], S.shape[1], S.indptr, S.indices,
                           S.data, ext, y)

            scipy_arm()
            assert B.matvec_into(ext, out).tobytes() == y.tobytes()
            scipy_us, repro_us, ratio = _paired(
                scipy_arm, partial(B.matvec_into, ext, out), number=20_000)
            ratios[n, peers, index] = ratio
            lines.append(f"{str((n, peers, index)):<26}{rows:>7}"
                         f"{scipy_us:>10.2f}{repro_us:>10.2f}{ratio:>7.3f}")
    record_table("coupled_rows", "\n".join(lines))
    # never slower than scipy on fig7_column's strips
    assert ratios[96, 8, 0] < 1.0 and ratios[96, 8, 4] < 1.0


def _sparse_basis_cg(op):
    """The sparse-basis arm on ``op``'s matrix: the hand-tuned loop
    ``CgOperator.solve`` ran before it moved to the sine eigenbasis — its
    own preallocated buffers and the DIA matvec kernel, bitwise
    :func:`conjugate_gradient`.  ``solve(b, x0, tol, max_iter)`` returns
    ``(x, iterations, converged)``."""
    n, kernel = op.n, op.kernel
    r, p, Ap, tmp = (np.empty(n) for _ in range(4))

    def solve(b, x0=None, tol=1e-10, max_iter=None):
        if max_iter is None:
            max_iter = max(10 * n, 100)
        x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
        b_norm = math.sqrt(b.dot(b))
        stop = tol * b_norm if b_norm > 0 else tol
        Ap.fill(0.0)
        kernel(x, Ap)
        np.subtract(b, Ap, out=r)
        rz = float(r.dot(r))
        res = math.sqrt(rz)
        np.copyto(p, r)
        it = 0
        while res > stop and it < max_iter:
            Ap.fill(0.0)
            kernel(p, Ap)
            pAp = float(p.dot(Ap))
            if pAp <= 0.0:
                break
            alpha = rz / pAp
            np.multiply(p, alpha, out=tmp)
            np.add(x, tmp, out=x)
            np.multiply(Ap, alpha, out=tmp)
            np.subtract(r, tmp, out=r)
            rz_new = float(r.dot(r))
            res = math.sqrt(rz_new)
            beta = rz_new / rz if rz > 0 else 0.0
            np.multiply(p, beta, out=p)
            np.add(p, r, out=p)
            rz = rz_new
            it += 1
        return x, it, res <= stop

    return solve


#: the strips whose inner CG the Figure 7 column and the small-block churn
#: workload solve: (n, peers, block) of their edge and interior strips
SPECTRAL_STRIPS = [(96, 8, 0), (96, 8, 4), (40, 10, 0), (40, 10, 5)]


def test_spectral_cg_vs_sparse_basis(record_table):
    """Sibling arms of one inner solve: ``CgOperator.solve`` in the strip's
    sine eigenbasis against the sparse-basis DIA loop it replaced, on the
    ledger's CG strips, cold and warm started; then every inner solve of
    the quick ``fig7_column`` column (seed 0) run through both."""
    from repro.exec import SweepEngine
    from repro.experiments.figure7 import figure7_sweep
    from repro.numerics import conjugate_gradient

    lines = [f"Inner CG solves, sine eigenbasis vs sparse basis "
             f"(nproc={os.cpu_count()}; medians of 15 back-to-back timeit "
             "pairs)",
             f"{'strip (n, peers, block)':<26}{'rows':>7}{'start':>6}"
             f"{'iters':>8}{'sparse_us':>10}{'eigen_us':>9}{'ratio':>7}"
             f"{'rel_dx':>9}"]
    ratios = []
    for n, peers, index in SPECTRAL_STRIPS:
        blk = _strip(n, peers, index)
        A, b = blk.A_local, blk.b_local
        op = CgOperator(A)
        sparse = _sparse_basis_cg(op)
        warm = b / A.to_scipy().diagonal()
        for start, x0 in (("cold", None), ("warm", warm)):
            want = conjugate_gradient(A, b, x0=x0)
            x, it, converged = sparse(b, x0=x0)
            assert x.tobytes() == want.x.tobytes()
            got = op.solve(b, x0=x0)
            assert abs(got.iterations - it) <= 1
            assert got.converged == converged
            rel_dx = np.linalg.norm(got.x - x) / np.linalg.norm(x)
            assert rel_dx <= 1e-10
            sparse_us, eigen_us, ratio = _paired(
                partial(sparse, b, x0), partial(op.solve, b, x0),
                number=max(3, 20_000 // A.shape[0]))
            ratios.append(ratio)
            lines.append(f"{str((n, peers, index)):<26}{A.shape[0]:>7}"
                         f"{start:>6}{f'{it}/{got.iterations}':>8}"
                         f"{sparse_us:>10.1f}"
                         f"{eigen_us:>9.1f}{ratio:>7.3f}{rel_dx:>9.1e}")

    # replay: each solve the column asks for, through the sparse-basis arm
    # as well; the run follows the eigenbasis arm's timeline
    solve = CgOperator.solve
    stats = {"solves": 0, "equal": 0, "max_gap": 0, "flips": 0,
             "max_dx": 0.0}

    def replayed(self, b, x0=None, tol=1e-10, max_iter=None):
        got = solve(self, b, x0=x0, tol=tol, max_iter=max_iter)
        x, it, converged = _sparse_basis_cg(self)(b, x0=x0, tol=tol,
                                                  max_iter=max_iter)
        stats["solves"] += 1
        stats["equal"] += got.iterations == it
        stats["max_gap"] = max(stats["max_gap"], abs(got.iterations - it))
        stats["flips"] += got.converged != converged
        scale = np.linalg.norm(x)
        if scale:
            stats["max_dx"] = max(stats["max_dx"],
                                  np.linalg.norm(got.x - x) / scale)
        return got

    CgOperator.solve = replayed
    try:
        figure7_sweep(ns=(96,), disconnections=(0, 4), peers=8, repeats=1,
                      base_seed=0, engine=SweepEngine(workers=1))
    finally:
        CgOperator.solve = solve
    solves, equal = stats["solves"], stats["equal"]
    # the box-dependent timings and the exact simulated replay go to
    # separate tables: a change that moves the column's timeline re-records
    # the replay table and can leave the timing table as it was
    record_table("spectral_cg", "\n".join(lines))
    record_table("spectral_cg_replay", "\n".join([
        "Replay: every inner solve of quick fig7_column (n=96, 8 peers, "
        "disconnections 0 and 4, seed 0) through both arms",
        f"solves {solves}, equal iteration counts {equal} "
        f"({equal / solves:.2%}), largest count gap "
        f"{stats['max_gap']}, converged flips {stats['flips']}, "
        f"largest relative dx {stats['max_dx']:.1e}"]))
    assert solves > 1000
    assert equal >= 0.995 * solves
    assert stats["max_gap"] <= 1 and stats["flips"] == 0
    assert stats["max_dx"] <= 1e-10
    # a speed-up on every strip the two CG workloads solve
    assert max(ratios) < 1.0


@pytest.mark.benchmark(group="micro")
def test_message_size_accounting_cost(benchmark):
    payload = {"x": np.zeros(4096), "meta": [1, 2.0, "three"] * 10}
    size = benchmark(measured_size, payload)
    assert size > 4096 * 8
