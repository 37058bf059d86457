"""Every call that perfbench's spans patch still exists in the package; a
renamed or deleted target would otherwise show only in a traced benchmark run."""
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import holopulse

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
_SPEC = importlib.util.spec_from_file_location("spans", _PATH)
spans = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(spans)


def test_every_patched_target_exists_and_is_callable():
    hp = {info.name: importlib.import_module(f"holopulse.{info.name}")
          for info in pkgutil.iter_modules(holopulse.__path__)}
    targets = spans.targets(hp)
    assert targets
    missing = [(getattr(owner, "__name__", owner), attr) for owner, attr, _, _ in targets
               if not callable(getattr(owner, attr, None))]
    assert missing == []
