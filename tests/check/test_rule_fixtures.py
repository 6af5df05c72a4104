"""End-to-end fixture projects for the interprocedural rules.

These are the seeded-violation negative tests: each fixture plants one
deliberate hazard and asserts the full ``run_check`` pipeline (walker,
rule registry, pragmas, baseline diff) reports exactly the expected
code — or, for the known-good conventions, exactly nothing.
"""

from repro.check.rules import RULE_FACTORIES
from repro.check.runner import run_check

#: Every family but reachability: each fixture is a project with no
#: roots, where every public definition would also be reported unreached.
RULES = tuple(name for name in RULE_FACTORIES if name != "reachability")


def codes(result) -> list[str]:
    return sorted(v.code for v in result.new)


ABBA = (
    "import threading\n"
    "class Pair:\n"
    "    def __init__(self):\n"
    "        self._a = threading.Lock()\n"
    "        self._b = threading.Lock()\n"
    "    def forward(self):\n"
    "        with self._a:\n"
    "            with self._b:\n"
    "                self._x = 1\n"
    "    def backward(self):\n"
    "        with self._b:\n"
    "            with self._a:\n"
    "                self._x = 2\n"
)


class TestLockOrderCycle:
    def test_abba_deadlock_cycle_detected(self, make_project):
        root = make_project({"serve/pair.py": ABBA})
        result = run_check(root=root, rules=RULES)
        assert "concurrency/lock-order-cycle" in codes(result)
        cycle = [v for v in result.new if v.code == "concurrency/lock-order-cycle"]
        # Both closing acquisitions are reported, each with the cycle.
        assert len(cycle) == 2
        assert all("Pair._a" in v.message and "Pair._b" in v.message for v in cycle)

    def test_consistent_order_passes(self, make_project):
        text = ABBA.replace(
            "    def backward(self):\n"
            "        with self._b:\n"
            "            with self._a:\n",
            "    def backward(self):\n"
            "        with self._a:\n"
            "            with self._b:\n",
        )
        root = make_project({"serve/pair.py": text})
        assert run_check(root=root, rules=RULES).ok


class TestGuardInference:
    HELPER_GUARDED = (
        "import threading\n"
        "class Store:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self._rows = []\n"
        "    def append(self, row):\n"
        "        with self._lock:\n"
        "            self._ingest_one(row)\n"
        "    def _ingest_one(self, row):\n"
        "        self._rows = self._rows + [row]\n"
    )

    def test_helper_guarded_write_not_flagged(self, make_project):
        root = make_project({"summary/store.py": self.HELPER_GUARDED})
        assert run_check(root=root, rules=RULES).ok

    def test_unguarded_public_wrapper_flagged(self, make_project):
        text = self.HELPER_GUARDED.replace(
            "    def _ingest_one(self, row):\n",
            "    def append_fast(self, row):\n"
            "        self._ingest_one(row)\n"
            "    def _ingest_one(self, row):\n",
        )
        root = make_project({"summary/store.py": text})
        result = run_check(root=root, rules=RULES)
        assert codes(result) == ["concurrency/unguarded-write"]
        message = result.new[0].message
        assert "self._rows" in message
        assert "Store.append_fast -> Store._ingest_one" in message


class TestForkSharedLock:
    def test_lock_on_both_sides_of_fork_flagged(self, make_project):
        root = make_project(
            {
                "obs/state.py": (
                    "import threading\n"
                    "_state_lock = threading.Lock()"
                    "  # repro: allow[forksafety/prefork-thread] fixture isolates the cross-process rule\n"
                    "def bump():\n"
                    "    with _state_lock:\n"
                    "        pass\n"
                ),
                "cluster/worker.py": (
                    "from repro.obs.state import bump\n"
                    "def worker_main(shard):\n"
                    "    bump()\n"
                ),
                "cluster/supervisor.py": (
                    "from repro.cluster.worker import worker_main\n"
                    "from repro.obs.state import bump\n"
                    "def spawn(shard):\n"
                    "    bump()\n"
                    "    worker_main(shard)\n"
                ),
            }
        )
        result = run_check(root=root, rules=RULES)
        assert "forksafety/fork-shared-lock" in codes(result)
        found = [v for v in result.new if v.code == "forksafety/fork-shared-lock"]
        assert "_state_lock" in found[0].message
        assert "both sides of fork()" in found[0].message

    def test_single_sided_lock_passes(self, make_project):
        root = make_project(
            {
                "obs/state.py": (
                    "import threading\n"
                    "_state_lock = threading.Lock()"
                    "  # repro: allow[forksafety/prefork-thread] fixture isolates the cross-process rule\n"
                    "def bump():\n"
                    "    with _state_lock:\n"
                    "        pass\n"
                ),
                "cluster/worker.py": (
                    "from repro.obs.state import bump\n"
                    "def worker_main(shard):\n"
                    "    bump()\n"
                ),
                "cluster/supervisor.py": (
                    "from repro.cluster.worker import worker_main\n"
                    "def spawn(shard):\n"
                    "    worker_main(shard)\n"
                ),
            }
        )
        assert run_check(root=root, rules=RULES).ok


class TestNanosecondClocks:
    def test_monotonic_ns_flagged_as_wall_clock(self, make_project):
        root = make_project(
            {
                "extraction/stamp.py": (
                    "import time\n"
                    "def stamp():\n"
                    "    return time.monotonic_ns()\n"
                )
            }
        )
        assert codes(run_check(root=root, rules=RULES)) == ["determinism/wall-clock"]

    def test_perf_counter_ns_flagged_as_wall_clock(self, make_project):
        root = make_project(
            {
                "extraction/stamp.py": (
                    "import time\n"
                    "def stamp():\n"
                    "    return time.perf_counter_ns()\n"
                )
            }
        )
        assert codes(run_check(root=root, rules=RULES)) == ["determinism/wall-clock"]

    def test_float_monotonic_stays_legal(self, make_project):
        root = make_project(
            {
                "extraction/stamp.py": (
                    "import time\n"
                    "def stamp():\n"
                    "    return time.monotonic()\n"
                )
            }
        )
        assert run_check(root=root, rules=RULES).ok
