"""Each rule on the path from a post to its logits, and the rule for how many
processes a phase of a round takes, is computed in one place in
`src/fedlora`: only `model.tokenize` reads `Vocab.token_to_id` (which
`Vocab` builds), and only `model.real_width` takes the last real column of a
PAD mask, the `.any(axis=0)` reduction over a set's or a batch's columns.
Only `Helpers.__init__` reads the usable cores and applies
`federation.phase_processes`, once per phase and run, and only
`phase_processes` splits a phase with `federation.assign`. Only `rng` turns
PCG64's raw draws into NumPy's `random()` (`2.0 ** -53`) and `integers(k)`
(Lemire's `% k` threshold), and `data` reaches that stream only through
`rng.coin_then_pick`."""

import inspect
from pathlib import Path

from fedlora import federation, model, rng

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fedlora"


def readers(word, *owners):
    """'module: word' for each module of the package that spells `word` outside
    the source of `owners`."""
    skip = [inspect.getsource(owner) for owner in owners]
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        for source in skip:
            text = text.replace(source, "")
        if word in text:
            found.append(f"{path.name}: {word}")
    return found


def test_only_tokenize_reads_token_to_id():
    assert readers("token_to_id", model.Vocab, model.tokenize) == []
    assert "token_to_id" in inspect.getsource(model.tokenize)


def test_only_real_width_takes_the_last_real_column():
    assert readers(".any(axis=0)", model.real_width) == []
    assert ".any(axis=0)" in inspect.getsource(model.real_width)


def test_only_helpers_init_reads_the_usable_cores():
    owner = federation.Helpers.__init__
    assert readers("usable_cores()", federation.usable_cores, owner) == []
    assert "usable_cores()" in inspect.getsource(owner)


def test_only_helpers_init_applies_phase_processes():
    owner = federation.Helpers.__init__
    assert readers("phase_processes(", federation.phase_processes, owner) == []
    assert "phase_processes(" in inspect.getsource(owner)


def test_only_phase_processes_splits_a_phase():
    owner = federation.phase_processes
    assert readers("assign(", federation.assign, owner) == []
    assert "assign(" in inspect.getsource(owner)


def test_only_rng_spells_numpys_draw_arithmetic():
    assert readers("2.0 ** -53", rng) == [] and readers("% k", rng) == []
    assert "2.0 ** -53" in inspect.getsource(rng._next_double)
    assert "% k" in inspect.getsource(rng._lemire)
    data = (PACKAGE / "data.py").read_text(encoding="utf-8")
    assert [word for word in ("PCG64", "raw_draws", "next_double") if word in data] == []
    assert "rng.coin_then_pick(" in data
