"""Every name the bench tracer wraps still resolves in the package.

``bench/spans.py`` lists the traced names in ``TRACED``; its ``Tracer.prepare``
looks each one up, so a name deleted from ``openxxz`` breaks every traced
bench run.  The bench file is only imported here, never changed.
"""

import importlib
import importlib.util
import pathlib

SPANS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def unresolved(traced) -> list:
    """(module, name) pairs of traced that name no function of openxxz.<module>,
    or, for Class.method, no callable in the class's own __dict__."""
    out = []
    for mod_name, qual in traced:
        mod = importlib.import_module(f"openxxz.{mod_name}")
        if "." in qual:
            cls_name, meth = qual.split(".")
            target = getattr(mod, cls_name, None)
            found = isinstance(target, type) and callable(vars(target).get(meth))
        else:
            found = callable(getattr(mod, qual, None))
        if not found:
            out.append((mod_name, qual))
    return out


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED and unresolved(spans.TRACED) == []


def test_traced_name_check_finds_a_missing_name():
    missing = (("scalar", "no_such_function"), ("sov", "SovBasis.no_such_method"),
               ("trig", "no_such_class.__call__"), ("scalar", "DEFAULT_A_TILDE"))
    assert unresolved((("sov", "sov_norm_const"),) + missing) == list(missing)
