"""`checkpoint.write_atomically` is the one code in `src/fedlora` that names a
temp file, moves a file onto its target or removes one: no other module of
the package spells the `.tmp` suffix or calls os.replace, os.rename,
os.remove or os.unlink."""

from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fedlora"
STAGING_WORDS = (".tmp", "os.replace", "os.rename", "os.remove", "os.unlink")


def test_only_checkpoint_stages_files():
    stagers = [f"{path.name}: {word}" for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "checkpoint.py"
               for word in STAGING_WORDS if word in path.read_text(encoding="utf-8")]
    assert stagers == []
