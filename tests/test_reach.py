"""tools/reach.py, the report of the package lines a CLI run never executes."""

import contextlib
import importlib.util
import io
from pathlib import Path

from clustermirror import almost_toric

TOOL = Path(__file__).resolve().parent.parent / "tools" / "reach.py"
spec = importlib.util.spec_from_file_location("reach", TOOL)
reach = importlib.util.module_from_spec(spec)
spec.loader.exec_module(reach)


def test_one_smoothness_case_misses_only_what_a_2d_corner_skips():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        reach.main(["--", "verify", "--suite", "smoothness", "--prng", "1", "--cases", "1"])
    missed = {}
    for line in out.getvalue().splitlines():
        name, _, numbers = line.partition(": ")
        missed[name] = [int(n) for n in numbers.split()]
    source = Path(almost_toric.__file__).read_text().splitlines()

    def texts(fn):
        return [source[n - 1].strip() for n in missed.get("almost_toric." + fn, [])]

    assert 'raise AlmostToricError("smoothness check is 2D only")' in texts("smoothness_check")
    # the one corner drawn is a vertex between two rays, unimodular, so
    # _corner_basis runs in full but for its refusal and the edge branch
    assert texts("_corner_basis") == ["else vec_sub(vs[(i + 1) % len(vs)], vs[i]))",
                                      'raise AlmostToricError("corner not integral-affine standard")']
    # a function never called is listed whole
    assert texts("detect_interactions")[0] == "if poly.dimension == 2:"
