import contextlib
import io
import re
from pathlib import Path

import corz

# every name the README Library section uses or mentions, the CLI and the
# verify suites import, and what those names call; by module as listed there
PUBLIC_API = sorted("""
    Partition enumerate_partitions count_p count_p_regular count_cores is_core
    is_regular
    Abacus to_abacus from_abacus abacus_size enumerate_cores bead_jump_witness
    swap_columns extremal_abacus n_ell max_regular_core
    ColumnEvaluator mn_character dimension centralizer_order
    legendre sigma_twisted delta_ell bernoulli_number generalized_bernoulli
    inv_alpha c2_closed c3_closed core_main_term core_lower_bound_ok
    CensusConfig CensusRecord build_record run_census write_records z_lower_bound
    z_exact z_star_exact z_star_closed z_all_exact verify available_suites Report
""".split())

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_all_is_the_decided_api():
    assert sorted(corz.__all__) == PUBLIC_API
    for name in PUBLIC_API:
        assert getattr(corz, name) is not None, name


def test_readme_library_example_runs_and_its_values_hold():
    code = library_example()
    namespace = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), namespace)
    assert out.getvalue().startswith("n,ell,p_n,")
    # lines of the form `expression    # value`
    claims = re.findall(r"^(\S.*?)\s+#\s*(-?\d+)\b", code, re.M)
    assert [int(value) for _, value in claims] == [102, 1275, 0, 14]
    for expr, value in claims:
        assert eval(expr, namespace) == int(value), expr
