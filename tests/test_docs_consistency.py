"""Documentation-vs-code consistency guards.

DESIGN.md's module map, README's example table, and the CLI's help are
promises; these tests fail when a rename or deletion would silently
break them.
"""

import importlib
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parent.parent


class TestDesignModuleMap:
    def test_every_mapped_module_exists(self):
        """Each `name.py` mentioned in DESIGN.md's inventory exists."""
        text = (ROOT / "DESIGN.md").read_text()
        block = text.split("```")[1]  # the module-map code block
        missing = []
        current_pkg = None
        for line in block.splitlines():
            pkg = re.match(r"\s{2}(\w+)/", line)
            if pkg:
                current_pkg = pkg.group(1)
            mod = re.match(r"\s{4}(\w+)\.py", line)
            if mod and current_pkg:
                path = ROOT / "src" / "repro" / current_pkg / (
                    mod.group(1) + ".py")
                if not path.exists():
                    missing.append(str(path))
        assert not missing, missing

    def test_every_bench_mentioned_exists(self):
        text = (ROOT / "DESIGN.md").read_text()
        for name in re.findall(r"benchmarks/(test_\w+\.py)", text):
            assert (ROOT / "benchmarks" / name).exists(), name


class TestReadme:
    def test_example_table_matches_directory(self):
        text = (ROOT / "README.md").read_text()
        mentioned = set(re.findall(r"`examples/(\w+\.py)`", text))
        present = {p.name for p in (ROOT / "examples").glob("*.py")}
        assert mentioned == present

    def test_reproduce_targets_match_cli(self):
        from repro.cli import _build_parser
        text = (ROOT / "README.md").read_text()
        # README advertises: `python -m repro reproduce fig5` (also ...)
        advertised = {"fig1", "fig5", "fig6", "fig11", "fig12", "table1"}
        for target in advertised:
            assert target in text
        parser = _build_parser()
        args = parser.parse_args(["reproduce", "fig5"])
        assert args.target == "fig5"
        with pytest.raises(SystemExit):
            parser.parse_args(["reproduce", "fig99"])


class TestReproducingDoc:
    def test_every_listed_bench_exists(self):
        text = (ROOT / "docs" / "REPRODUCING.md").read_text()
        for name in re.findall(r"`(test_\w+\.py)`", text):
            assert (ROOT / "benchmarks" / name).exists(), name

    def test_all_benches_are_listed(self):
        text = (ROOT / "docs" / "REPRODUCING.md").read_text()
        for path in (ROOT / "benchmarks").glob("test_*.py"):
            assert path.name in text, f"{path.name} undocumented"


#: A shell line that runs the CLI, after an optional ``$`` prompt and
#: ``VAR=value`` prefixes.
CLI_LINE = re.compile(
    r"(\$\s+)?(\w+=\S*\s+)*(python3? -m repro|repro)(?=\s|$)")


def _cli_examples():
    """``(file, argv)`` for each CLI line in README's and docs' fences.

    Lines ending in a backslash join the next; a trailing comment, pipe
    or ``&`` is cut off.
    """
    examples = []
    for path in [ROOT / "README.md"] + sorted((ROOT / "docs").glob("*.md")):
        fences = re.findall(r"^```[^\n]*\n(.*?)^```", path.read_text(),
                            flags=re.S | re.M)
        for fence in fences:
            for line in fence.replace("\\\n", " ").splitlines():
                command = line.strip()
                match = CLI_LINE.match(command)
                if not match:
                    continue
                argv = shlex.split(command[match.end():], comments=True)
                for i, word in enumerate(argv):
                    if word.startswith(("|", "&")):
                        argv = argv[:i]
                        break
                examples.append((path.name, argv))
    return examples


class TestCliExamples:
    def test_every_fenced_example_parses(self):
        from repro.cli import _build_parser
        examples = _cli_examples()
        assert examples, "no CLI examples found in the docs"
        parser = _build_parser()
        broken = []
        for name, argv in examples:
            try:
                parser.parse_args(argv)
            except SystemExit:
                broken.append(f"{name}: {' '.join(argv)}")
        assert not broken, broken


#: The first line of a ``from repro... import`` or ``import repro...``
#: statement in a fenced block.
IMPORT_LINE = re.compile(
    r"^\s*(from\s+repro\b[\w.]*\s+import\b|import\s+repro\b)")


def _import_statements():
    """``(file, statement)`` for each repro import in README's and docs'
    fences; a parenthesized import spanning lines is one statement."""
    statements = []
    for path in [ROOT / "README.md"] + sorted((ROOT / "docs").glob("*.md")):
        fences = re.findall(r"^```[^\n]*\n(.*?)^```", path.read_text(),
                            flags=re.S | re.M)
        for fence in fences:
            lines = iter(fence.splitlines())
            for line in lines:
                if not IMPORT_LINE.match(line):
                    continue
                statement = line.strip()
                while "(" in statement and ")" not in statement:
                    statement += " " + next(lines).strip()
                statements.append((path.name, statement))
    return statements


class TestDocImports:
    def test_every_fenced_import_resolves(self):
        statements = _import_statements()
        assert statements, "no repro imports found in the docs"
        broken = []
        for name, statement in statements:
            try:
                exec(compile(statement, name, "exec"), {})
            except ImportError as exc:
                broken.append(f"{name}: {statement} ({exc})")
        assert not broken, broken


#: A backticked dotted ``repro`` name in prose, or the callee of a
#: backticked call such as `repro.obs.merge_spans(*shards)`.
DOTTED_NAME = re.compile(r"`(repro(?:\.\w+)+)[`(]")


def _resolves(name):
    """Whether ``name`` is a module, or an attribute path under the
    longest importable module prefix of it."""
    parts = name.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for attr in parts[i:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


class TestDocNames:
    def test_every_backticked_repro_name_resolves(self):
        """Prose in README, DESIGN, PAPER and docs/ names only what
        exists."""
        mentions = set()
        for path in ([ROOT / "README.md", ROOT / "DESIGN.md",
                      ROOT / "PAPER.md"]
                     + sorted((ROOT / "docs").glob("*.md"))):
            mentions |= {(path.name, name)
                         for name in DOTTED_NAME.findall(path.read_text())}
        assert mentions, "no repro names found in the docs"
        broken = sorted(f"{file}: {name}" for file, name in mentions
                        if not _resolves(name))
        assert not broken, broken


class TestModuleEntryPoint:
    def test_python_dash_m_repro(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "list-benchmarks"],
            capture_output=True, text=True, timeout=120)
        assert result.returncode == 0
        assert "kmeans" in result.stdout

    def test_bad_command_exits_nonzero(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "frobnicate"],
            capture_output=True, text=True, timeout=60)
        assert result.returncode != 0
