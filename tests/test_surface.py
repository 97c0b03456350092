import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "curlkit"


def test_every_public_name_has_a_caller_in_the_package():
    # a public function, class or method that no code of the package names
    # is reached only by tests; VectorFieldDef.from_source is the tests'
    # way to build a force from source text. C.m names only C's method m.
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    classes = {node.name for tree in trees.values() for node in tree.body
               if isinstance(node, ast.ClassDef)}
    defined, referenced = {}, set()
    for stem, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined[f"{stem}.{node.name}"] = {node.name}
                for item in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        defined[f"{stem}.{node.name}.{item.name}"] = {
                            item.name, f"{node.name}.{item.name}"}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                owner = getattr(node.value, "id", getattr(node.value, "attr", None))
                referenced.add(f"{owner}.{node.attr}" if owner in classes else node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                referenced.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    unreached = {name for name, keys in defined.items() if not keys & referenced}
    assert unreached == {"fieldkit.VectorFieldDef.from_source"}
