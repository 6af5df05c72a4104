"""Tests for the reachability rule: what no root reaches is reported."""

from repro.check.reachability import ReachabilityRule
from repro.check.runner import run_check
from repro.check.walker import SourceFile


def source(module: str, text: str, package: bool = False) -> SourceFile:
    path = module.replace(".", "/") + ("/__init__.py" if package else ".py")
    return SourceFile.from_text(text, path=path, module=module)


def unreached(*sources: SourceFile, external: tuple[SourceFile, ...] = ()) -> list[str]:
    """Names of the definitions the rule reports, sorted."""
    rule = ReachabilityRule(external)
    return sorted(v.message.split("'")[1] for v in rule.run(sources))


class TestRoots:
    def test_reached_through_init_reexport_chain(self):
        found = unreached(
            source("repro.geo.distance", "def haversine_km(a, b):\n    return 0.0\n"),
            source(
                "repro.geo",
                "from repro.geo.distance import haversine_km\n"
                "__all__ = ['haversine_km']\n",
                package=True,
            ),
            source(
                "repro.serve.app",
                "from repro import geo\n"
                "ROUTES = {'distance': geo.haversine_km}\n",
            ),
        )
        assert found == []

    def test_reexport_and_all_alone_are_not_roots(self):
        found = unreached(
            source("repro.geo.distance", "def haversine_km(a, b):\n    return 0.0\n"),
            source(
                "repro.geo",
                "from repro.geo.distance import haversine_km\n"
                "__all__ = ['haversine_km']\n",
                package=True,
            ),
        )
        assert found == ["haversine_km"]

    def test_class_named_by_external_layer_table(self):
        monitor = source(
            "repro.stream.monitor",
            "class MobilityMonitor:\n"
            "    def push_batch(self, batch):\n"
            "        return batch\n",
        )
        online = source(
            "repro.stream.online",
            "from repro.core.label import label_points\n",
        )
        label = source("repro.core.label", "def label_points(points):\n    return points\n")
        layers = SourceFile.from_text(
            "from repro.stream import online\n"
            "from repro.stream.monitor import MobilityMonitor\n"
            "LAYERS = (\n"
            "    Layer(MobilityMonitor, 'push_batch', 'stream.monitor'),\n"
            "    Layer(online, 'label_points', 'core.label_points'),\n"
            ")\n",
            path="perfbench/layers.py",
            module="perfbench.layers",
        )
        assert unreached(monitor, online, label, external=(layers,)) == []
        assert unreached(monitor, online, label) == ["MobilityMonitor", "label_points"]

    def test_reference_from_decorator_or_default_reaches(self):
        found = unreached(
            source(
                "repro.core.util",
                "def tag(fn):\n"
                "    return fn\n"
                "def default_step():\n"
                "    return 1\n"
                "@tag\n"
                "def live(step=default_step):\n"
                "    return step\n"
                "ENTRY = live\n",
            )
        )
        assert found == []

    def test_project_decorator_makes_a_root(self):
        found = unreached(
            source(
                "repro.check.rules",
                "RULES = {}\n"
                "def register(cls):\n"
                "    RULES[cls.__name__] = cls\n"
                "    return cls\n",
            ),
            source(
                "repro.check.custom",
                "from repro.check.rules import register\n"
                "@register\n"
                "class CustomRule:\n"
                "    pass\n",
            ),
        )
        assert found == []

    def test_methods_called_on_instances_keep_the_class(self):
        found = unreached(
            source(
                "repro.summary.store",
                "def encode_row(row):\n"
                "    return row\n"
                "class Store:\n"
                "    def put(self, row):\n"
                "        return encode_row(row)\n",
            ),
            source(
                "repro.serve.app",
                "from repro.summary.store import Store\n"
                "def handle(store, row):\n"
                "    return store.put(row)\n"
                "def make():\n"
                "    return Store()\n"
                "ROUTES = {'put': handle, 'make': make}\n",
            ),
        )
        assert found == []


class TestFindings:
    def test_reached_only_from_dead_function(self):
        found = unreached(
            source(
                "repro.core.util",
                "def dead():\n"
                "    return helper()\n"
                "def helper():\n"
                "    return 1\n"
                "def _private():\n"
                "    return 2\n",
            )
        )
        assert found == ["dead", "helper"]

    def test_referenced_only_from_tests(self, make_project):
        root = make_project(
            {
                "core/util.py": "def used():\n    return 1\ndef tested():\n    return 2\n",
            }
        )
        (root / "tests").mkdir()
        (root / "tests" / "test_util.py").write_text(
            "from repro.core.util import tested\n"
            "def test_tested():\n"
            "    assert tested() == 2\n",
            encoding="utf-8",
        )
        (root / "examples").mkdir()
        (root / "examples" / "demo.py").write_text(
            "from repro.core.util import used\nprint(used())\n", encoding="utf-8"
        )
        result = run_check(root=root, rules=("reachability",))
        assert [(v.code, v.snippet) for v in result.new] == [
            ("reachability/unreached", "def tested():")
        ]

    def test_pragma_suppresses_and_keeps_what_it_uses(self, make_project):
        root = make_project(
            {
                "epidemic/oracle.py": (
                    "# repro: allow[reachability] oracle: a test compares the live path to it\n"
                    "def frozen_oracle():\n"
                    "    return helper()\n"
                    "def helper():\n"
                    "    return 1\n"
                ),
            }
        )
        result = run_check(root=root, rules=("reachability",))
        assert result.ok
        assert result.suppressed == 1


#: A reached ``Store``: a module-level route table makes and uses one.
STORE_APP = source(
    "repro.serve.app",
    "from repro.summary.store import Store\n"
    "def handle(row):\n"
    "    return Store().put(row)\n"
    "ROUTES = {'put': handle}\n",
)


class TestMethods:
    def test_method_no_reached_code_loads_is_reported(self):
        found = unreached(
            source(
                "repro.summary.store",
                "class Store:\n"
                "    def put(self, row):\n"
                "        return row\n"
                "    def size_bytes(self):\n"
                "        return 0\n",
            ),
            STORE_APP,
        )
        assert found == ["Store.size_bytes"]

    def test_method_loaded_only_by_a_dead_method_is_reported(self):
        found = unreached(
            source(
                "repro.summary.store",
                "def encode_row(row):\n"
                "    return row\n"
                "class Store:\n"
                "    def put(self, row):\n"
                "        return row\n"
                "    def filter_bbox(self, box):\n"
                "        return self.subset(box)\n"
                "    def subset(self, box):\n"
                "        return encode_row(box)\n",
            ),
            STORE_APP,
        )
        assert found == ["Store.filter_bbox", "Store.subset", "encode_row"]

    def test_external_layer_row_keeps_the_method(self):
        monitor = source(
            "repro.stream.monitor",
            "class MobilityMonitor:\n"
            "    def push_batch(self, batch):\n"
            "        return batch\n"
            "    def check_now(self):\n"
            "        return None\n",
        )
        layers = SourceFile.from_text(
            "from repro.stream.monitor import MobilityMonitor\n"
            "LAYERS = (Layer(MobilityMonitor, 'push_batch', 'stream.monitor'),)\n",
            path="perfbench/layers.py",
            module="perfbench.layers",
        )
        assert unreached(monitor, external=(layers,)) == ["MobilityMonitor.check_now"]

    def test_dunders_and_private_methods_are_not_judged(self):
        found = unreached(
            source(
                "repro.summary.store",
                "class Store:\n"
                "    def __init__(self):\n"
                "        self._rows = []\n"
                "    def __len__(self):\n"
                "        return len(self._rows)\n"
                "    def _compact(self):\n"
                "        return None\n"
                "    def put(self, row):\n"
                "        return row\n"
                "    def od_counts(self):\n"
                "        return {}\n",
            ),
            STORE_APP,
        )
        assert found == ["Store.od_counts"]

    def test_override_of_an_outside_base_is_not_reported(self):
        found = unreached(
            source(
                "repro.serve.app",
                "from http.server import BaseHTTPRequestHandler\n"
                "class Handler:\n"
                "    pass\n"
                "class RequestHandler(BaseHTTPRequestHandler):\n"
                "    def do_GET(self):\n"
                "        return None\n"
                "class LocalHandler(Handler):\n"
                "    def do_GET(self):\n"
                "        return None\n"
                "ROUTES = {'http': RequestHandler, 'local': LocalHandler}\n",
            )
        )
        assert found == ["LocalHandler.do_GET"]

    def test_unreached_class_does_not_report_its_methods(self):
        found = unreached(
            source(
                "repro.summary.store",
                "class Store:\n"
                "    def put(self, row):\n"
                "        return row\n"
                "    def advance_to(self, now):\n"
                "        return now\n"
                "class Window:\n"
                "    def advance_to(self, now):\n"
                "        return now\n"
                "    def latest_timestamp(self):\n"
                "        return 0.0\n",
            ),
            STORE_APP,
        )
        assert found == ["Store.advance_to", "Window"]

    def test_pragma_on_a_method_keeps_it_and_what_it_uses(self, make_project):
        root = make_project(
            {
                "summary/store.py": (
                    "def helper():\n"
                    "    return 1\n"
                    "class Store:\n"
                    "    def put(self, row):\n"
                    "        return row\n"
                    "    # repro: allow[reachability] test harness: a test fixture kills it\n"
                    "    def kill_worker(self):\n"
                    "        return self.drain() + helper()\n"
                    "    def drain(self):\n"
                    "        return 0\n"
                    "ROUTES = {'put': Store().put}\n"
                ),
            }
        )
        result = run_check(root=root, rules=("reachability",))
        assert result.ok
        assert result.suppressed == 1
