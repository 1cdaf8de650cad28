"""ecolint rule-regression suite + live archive-completeness contracts.

Two layers:

1. **Rule regressions** -- one synthetic violation per ECO rule is fed
   through the linter and must be flagged (and a clean variant must
   not). This is what makes the CI lint gate *demonstrably* sensitive:
   a refactor that silently breaks a rule's detection fails here.
2. **Live contracts** -- the real repo must lint clean, and the ECO005
   cross-checks are re-asserted directly against the live
   ``SwarmFleet``/``SwarmArchive`` objects, so the AST-level check and the runtime behaviour cannot drift apart.
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[1]
# ``tools`` is repo tooling, deliberately outside the installed
# ``repro`` package (PYTHONPATH=src); import it from the repo root.
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.ecolint import lint_paths, lint_source  # noqa: E402
from tools.ecolint.contracts import (  # noqa: E402
    check_estimator_shelf,
    check_swarm_archive,
)

from repro.optimizers.batch import SwarmArchive, SwarmFleet  # noqa: E402

HOT = "src/repro/core/module.py"  # inside every rule's scope


def codes(violations):
    return [v.code for v in violations]


# -- ECO001: ambient RNG ------------------------------------------------------


class TestEco001:
    def test_np_random_draw_flagged(self):
        src = "import numpy as np\nx = np.random.rand(4)\n"
        assert "ECO001" in codes(lint_source(src, "tests/any.py"))

    def test_np_random_seed_flagged(self):
        src = "import numpy as np\nnp.random.seed(0)\n"
        assert "ECO001" in codes(lint_source(src, HOT))

    def test_aliased_import_resolved(self):
        src = "from numpy import random as nr\nx = nr.normal()\n"
        assert "ECO001" in codes(lint_source(src, HOT))

    def test_stdlib_random_flagged(self):
        src = "import random\nx = random.random()\n"
        assert "ECO001" in codes(lint_source(src, HOT))

    def test_from_random_import_flagged(self):
        src = "from random import shuffle\n"
        assert "ECO001" in codes(lint_source(src, HOT))

    def test_default_rng_allowed(self):
        src = (
            "import numpy as np\n"
            "rng = np.random.default_rng(7)\n"
            "gen = np.random.Generator(np.random.Philox(3))\n"
        )
        assert lint_source(src, HOT) == []


# -- ECO002: ambient nondeterminism in hot paths ------------------------------


class TestEco002:
    def test_wall_clock_flagged_in_hot_path(self):
        src = "import time\nt = time.time()\n"
        assert "ECO002" in codes(lint_source(src, HOT))

    def test_datetime_now_flagged(self):
        src = "import datetime\nnow = datetime.datetime.now()\n"
        assert "ECO002" in codes(lint_source(src, HOT))

    def test_environ_read_flagged(self):
        src = "import os\nv = os.environ['X']\n"
        assert "ECO002" in codes(lint_source(src, HOT))

    def test_out_of_scope_not_flagged(self):
        src = "import time\nt = time.time()\n"
        assert lint_source(src, "tests/test_x.py") == []
        assert lint_source(src, "src/repro/analysis/plots.py") == []


# -- ECO003: paired float ledgers ---------------------------------------------


class TestEco003:
    def test_paired_accumulator_flagged(self):
        src = (
            "class Pool:\n"
            "    def add(self, gb):\n"
            "        self.used_gb += gb\n"
            "    def drop(self, gb):\n"
            "        self.used_gb -= gb\n"
        )
        found = lint_source(src, "tests/any.py")
        assert codes(found) == ["ECO003", "ECO003"]  # both sites

    def test_accumulate_only_allowed(self):
        src = (
            "class Meter:\n"
            "    def add(self, x):\n"
            "        self.total += x\n"
        )
        assert lint_source(src, HOT) == []

    def test_local_variables_not_flagged(self):
        src = (
            "class C:\n"
            "    def f(self, items):\n"
            "        free = 0.0\n"
            "        free += 1.0\n"
            "        free -= 0.5\n"
            "        return free\n"
        )
        assert lint_source(src, HOT) == []


# -- ECO004: unordered iteration ----------------------------------------------


class TestEco004:
    def test_set_iteration_flagged(self):
        src = "names = {'a', 'b'}\nfor n in names:\n    print(n)\n"
        assert "ECO004" in codes(lint_source(src, HOT))

    def test_set_literal_comprehension_flagged(self):
        src = "out = [n for n in {'a', 'b'}]\n"
        assert "ECO004" in codes(lint_source(src, HOT))

    def test_set_difference_materialised_flagged(self):
        src = "missing = set(a) - set(b)\nrows = list(missing)\n"
        assert "ECO004" in codes(lint_source(src, HOT))

    def test_sorted_wrapper_allowed(self):
        src = "names = {'a', 'b'}\nfor n in sorted(names):\n    print(n)\n"
        assert lint_source(src, HOT) == []

    def test_membership_and_len_allowed(self):
        src = "names = {'a', 'b'}\nok = 'a' in names\nn = len(names)\n"
        assert lint_source(src, HOT) == []

    def test_out_of_scope_not_flagged(self):
        src = "names = {'a', 'b'}\nfor n in names:\n    print(n)\n"
        assert lint_source(src, "tests/test_x.py") == []


# -- ECO005: synthetic contract violations ------------------------------------

_GOOD_FLEET = '''
class SwarmArchive:
    positions: object
    bit_generator_state: dict

class SwarmFleet:
    _STACKED_STATE = {"positions": None}
    _ARCHIVE_PLAN = {"positions": "positions"}

    def retire(self, index):
        archive = SwarmArchive(
            positions=self.positions[index].copy(),
            bit_generator_state=self._rngs[index].bit_generator.state,
        )
        return archive

    def rehydrate(self, archive):
        state = archive.bit_generator_state
        self.positions[0] = archive.positions
        return 0
'''


class TestEco005Synthetic:
    def test_clean_fleet_passes(self):
        assert check_swarm_archive(_GOOD_FLEET) == []

    def test_new_stacked_field_without_plan_entry_flagged(self):
        src = _GOOD_FLEET.replace(
            '_STACKED_STATE = {"positions": None}',
            '_STACKED_STATE = {"positions": None, "velocities": None}',
        )
        found = check_swarm_archive(src)
        assert found and "velocities" in found[0].message

    def test_planned_field_missing_from_retire_flagged(self):
        src = _GOOD_FLEET.replace(
            "            positions=self.positions[index].copy(),\n", ""
        )
        found = check_swarm_archive(src)
        assert any("retire() does not snapshot" in v.message for v in found)

    def test_planned_field_missing_from_rehydrate_flagged(self):
        src = _GOOD_FLEET.replace(
            "        self.positions[0] = archive.positions\n", ""
        )
        found = check_swarm_archive(src)
        assert any("rehydrate() never" in v.message for v in found)

    def test_rng_state_must_round_trip(self):
        src = _GOOD_FLEET.replace(
            "        state = archive.bit_generator_state\n", ""
        )
        found = check_swarm_archive(src)
        assert any("bit_generator_state" in v.message for v in found)

    def test_registry_peek_must_consult_shelf(self):
        src = (
            "class ArrivalRegistry:\n"
            "    def get(self, name):\n"
            "        return self._by_name[name]\n"
            "    def revive(self, name):\n"
            "        self._by_name[name] = self._archived.pop(name)\n"
        )
        found = check_estimator_shelf(src)
        assert len(found) == 1 and "get()" in found[0].message
        assert found[0].code == "ECO005"
        fixed = src.replace("self._by_name[name]\n", "self._archived[name]\n", 1)
        assert check_estimator_shelf(fixed) == []


# -- ECO000: suppression policy -----------------------------------------------


class TestSuppressions:
    def test_suppression_with_reason_silences(self):
        src = (
            "import time\n"
            "t = time.time()  # ecolint: disable=ECO002 -- telemetry only\n"
        )
        assert lint_source(src, HOT) == []

    def test_standalone_directive_covers_next_line(self):
        src = (
            "import time\n"
            "# ecolint: disable=ECO002 -- telemetry only\n"
            "t = time.time()\n"
        )
        assert lint_source(src, HOT) == []

    def test_missing_reason_does_not_suppress(self):
        src = "import time\nt = time.time()  # ecolint: disable=ECO002\n"
        found = codes(lint_source(src, HOT))
        assert "ECO002" in found and "ECO000" in found

    def test_unused_directive_reported(self):
        src = "x = 1  # ecolint: disable=ECO001 -- stale\n"
        assert codes(lint_source(src, HOT)) == ["ECO000"]

    def test_meta_rule_not_suppressible(self):
        src = "x = 1  # ecolint: disable=ECO000, ECO001 -- nice try\n"
        assert "ECO000" in codes(lint_source(src, HOT))


# -- the repo itself ----------------------------------------------------------


class TestRepoIsClean:
    def test_repo_lints_clean(self):
        """The committed tree has zero unsuppressed violations.

        This is the tier-1 enforcement of the gate: a PR that introduces
        an ambient RNG draw, a hot-path clock read, a drifting ledger,
        an unordered iteration, an un-archived fleet field, or a stale
        suppression fails here even without the CI lint job.
        """
        report = lint_paths(
            [REPO_ROOT / "src", REPO_ROOT / "tests", REPO_ROOT / "benchmarks"],
            root=REPO_ROOT,
        )
        assert report.ok, "\n" + report.human_summary()
        assert report.files_checked > 50


# -- live ECO005: archive coverage equals mutable state inventory --------------


class TestLiveArchiveCoverage:
    def test_plan_covers_stacked_state_exactly(self):
        fleet = SwarmFleet(dim=2)
        assert set(fleet._ARCHIVE_PLAN) == set(fleet._STACKED_STATE)
        planned = {v for v in fleet._ARCHIVE_PLAN.values() if v is not None}
        archive_fields = {f.name for f in dataclasses.fields(SwarmArchive)}
        assert planned == archive_fields - {"bit_generator_state"}

    def test_retire_snapshots_every_planned_field(self):
        fleet = SwarmFleet(dim=2)
        i = fleet.add_swarm(np.random.default_rng(3))
        before = {
            name: np.array(getattr(fleet, name)[i], copy=True)
            for name, field in fleet._ARCHIVE_PLAN.items()
            if field is not None
        }
        archive = fleet.retire(i)
        for name, field in fleet._ARCHIVE_PLAN.items():
            if field is None:
                continue
            np.testing.assert_array_equal(
                np.asarray(getattr(archive, field)),
                before[name],
                err_msg=f"{name} -> SwarmArchive.{field}",
            )
        j = fleet.rehydrate(archive)
        for name in before:
            np.testing.assert_array_equal(
                np.asarray(getattr(fleet, name)[j]), before[name]
            )
