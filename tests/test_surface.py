import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "curlkit"


def test_every_public_name_has_a_caller_in_the_package():
    # a public function, class or method that no code of the package names
    # is reached only by tests; the two from_source constructors are the
    # tests' way to build fields from source text
    defined, referenced = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined[f"{path.stem}.{node.name}"] = node.name
                for item in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        defined[f"{path.stem}.{node.name}.{item.name}"] = item.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                referenced.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    unreached = {name for name, short in defined.items() if short not in referenced}
    assert unreached == {"fieldkit.ScalarFieldDef.from_source",
                         "fieldkit.VectorFieldDef.from_source"}
