import ast
from pathlib import Path

import goodsign


def test_all_matches_the_package():
    names = goodsign.__all__
    assert len(names) == len(set(names)), "duplicate names in __all__"
    assert [n for n in names if not hasattr(goodsign, n)] == []
    tree = ast.parse(Path(goodsign.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    assert sorted(n for n in imported if not n.startswith("_") and n not in names) == []


def test_readme_quick_start_runs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    names = {}
    exec(compile(block, "README.md quick start", "exec"), names)
    assert names["result"].classes_examined == 64  # as the block's comment says
    assert names["report"].is_good
