#!/usr/bin/env python3
"""Documentation-coverage gate for the observability layer's public API.

Walks the public headers of src/obs/ plus src/pp/stability.hpp (the
on_batch contract the timeline sampling semantics rest on) and fails if
any public symbol -- a namespace-scope class/struct/enum/alias/constant,
a free function, or a public member declaration -- is not immediately
preceded by a comment.  The repo documents public APIs with Doxygen-style
`///` comments; scripts/build_docs.sh runs this gate even when doxygen
itself is not installed, so undocumented symbols fail fast everywhere.

The parser is a line-oriented heuristic, not a C++ front end: it tracks
brace depth and access sections, treats `private:`/`protected:` members
and function bodies as exempt, and accepts any comment line (`///`, `//`,
or a `/* ... */` block end) directly above a declaration.  That is exactly
strict enough to keep the public surface documented without fighting the
language.

Usage:
  scripts/check_doc_coverage.py [HEADER...]

With no arguments, checks src/obs/*.hpp, src/pp/stability.hpp,
src/core/campaign.hpp, the fairness axis (src/pp/fairness.hpp,
src/pp/agent_simulator.hpp), the two protocol families it carries
(src/core/weak_kpartition.hpp, src/core/graph_bipartition.hpp), and the
per-agent verifier behind them (src/verify/agent_graph.hpp,
src/verify/weak_fairness.hpp), the SCC condensation every verify-layer
graph shares (src/verify/scc.hpp), and the scenario-server surface
(src/serve/scenario.hpp, src/serve/cache.hpp, src/serve/server.hpp).
Exits non-zero listing every undocumented symbol.  Stdlib only.
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DEFAULT_TARGETS = sorted((REPO / "src" / "obs").glob("*.hpp")) + [
    REPO / "src" / "pp" / "stability.hpp",
    REPO / "src" / "core" / "campaign.hpp",
    # The engine factory and trial loop every driver shares.
    REPO / "src" / "pp" / "trial.hpp",
    # The run()/resume() loop every engine but the churn engine shares.
    REPO / "src" / "pp" / "engine_loop.hpp",
    # The fairness-policy axis, the engine realizing it, and the protocol
    # families riding on it.
    REPO / "src" / "pp" / "fairness.hpp",
    REPO / "src" / "pp" / "agent_simulator.hpp",
    REPO / "src" / "core" / "weak_kpartition.hpp",
    REPO / "src" / "core" / "graph_bipartition.hpp",
    REPO / "src" / "verify" / "agent_graph.hpp",
    REPO / "src" / "verify" / "weak_fairness.hpp",
    # The one SCC condensation the verify layer's graphs share.
    REPO / "src" / "verify" / "scc.hpp",
    # The exact-analysis back end (docs/exact.md).
    REPO / "src" / "pp" / "symmetry.hpp",
    REPO / "src" / "util" / "csr.hpp",
    REPO / "src" / "verify" / "lumped_markov.hpp",
    # The scenario-server surface (docs/ppkd.md).
    REPO / "src" / "serve" / "scenario.hpp",
    REPO / "src" / "serve" / "cache.hpp",
    REPO / "src" / "serve" / "server.hpp",
]

# Lines that introduce a documentable symbol.  Matched against a line with
# leading whitespace stripped, outside function bodies, in a public region.
DECLARATION = re.compile(
    r"^(?:template\s*<.*>\s*)?"
    r"(?:class|struct|enum\s+class|enum)\s+(?!.*;$)(\w+)"
    r"|^using\s+(\w+)\s*="
    r"|^(?:inline\s+)?constexpr\s+[\w:<>,\s]+?\b(\w+)\s*[={(]"
    r"|^#define\s+(\w+)"
)

# A function/member declaration: return type + name(args).  Requires an
# opening parenthesis and either a terminator on the line or a trailing
# open position (continued signature).
FUNCTION = re.compile(
    r"^(?:template\s*<.*>\s*)?"
    r"(?:\[\[nodiscard\]\]\s*)?"
    r"(?:virtual\s+|static\s+|explicit\s+|inline\s+|friend\s+|constexpr\s+)*"
    r"[\w:<>,*&\s\[\]]*?\b([A-Za-z_]\w*)\s*\("
)

CONTROL_KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "catch", "assert",
    "static_assert", "defined", "do", "PPK_EXPECTS", "PPK_ENSURES",
    "PPK_ASSERT",
}

SPECIAL_UNDOC_OK = {
    # Compiler-generated-semantics boilerplate nobody documents per line.
    "operator=",
}


def is_comment(line):
    stripped = line.strip()
    return (stripped.startswith("//") or stripped.startswith("*") or
            stripped.startswith("/*") or stripped.endswith("*/"))


def symbol_on_line(stripped):
    """Returns the declared symbol name, or None."""
    m = DECLARATION.match(stripped)
    if m:
        return next(name for name in m.groups() if name)
    m = FUNCTION.match(stripped)
    if m:
        name = m.group(1)
        if name in CONTROL_KEYWORDS or name.isupper():
            return None
        return name
    return None


def check_header(path):
    """Yields (line_number, symbol) for undocumented public symbols."""
    lines = path.read_text().splitlines()
    depth = 0            # brace depth
    # Access rules per class-brace depth: namespaces and structs default
    # public, classes default private.
    access = {}          # depth -> "public" | "private"
    body_depth = None    # depth at which a function body opened
    in_macro = False     # inside a multi-line #define (backslash-continued)
    documented_macros = set()

    prev_meaningful = ""  # previous non-blank line (for comment adjacency)
    continuation = False  # current line continues the previous declaration
    for number, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        if in_macro:
            in_macro = stripped.endswith("\\")
            continue
        if is_comment(stripped):
            prev_meaningful = stripped
            continue
        # Conditional-compilation directives are transparent: a comment
        # above an #ifndef still documents the #define inside it.
        if re.match(r"^#\s*(if|ifdef|ifndef|else|elif|endif)", stripped):
            continue

        if stripped in ("public:", "protected:", "private:"):
            access[depth] = stripped[:-1]
            prev_meaningful = stripped
            continuation = False
            continue

        in_body = body_depth is not None and depth > body_depth
        accessible = access.get(depth, "public") == "public"
        # Signatures may wrap; join up to a few continuation lines so
        # trailing `override` / `= delete` markers are visible.
        joined = stripped
        peek = number
        while (not joined.rstrip("\\").rstrip().endswith((";", "{", "}", ":"))
               and peek < len(lines) and peek - number < 5):
            joined += " " + lines[peek].strip()
            peek += 1
        boilerplate = joined.rstrip().endswith(("= delete;", "= default;"))
        inherits_docs = re.search(r"\boverride\b", joined) is not None
        if (not in_body and not continuation and accessible and depth <= 2 and
                not boilerplate and not inherits_docs):
            symbol = symbol_on_line(stripped)
            if symbol and stripped.startswith("#define"):
                # A documented #define documents its other conditional arm.
                if is_comment(prev_meaningful):
                    documented_macros.add(symbol)
                elif symbol not in documented_macros:
                    yield number, symbol
            elif (symbol and not is_comment(prev_meaningful) and
                    symbol not in SPECIAL_UNDOC_OK and
                    not stripped.startswith("}")):
                yield number, symbol

        if stripped.startswith("#define"):
            in_macro = stripped.endswith("\\")
            prev_meaningful = stripped
            continue

        # A declaration continues onto the next line unless this one ends
        # at a natural stopping point.
        continuation = not stripped.endswith((";", "{", "}", ":"))

        # Update structural state AFTER classifying the line.
        m = re.match(r"^(?:template\s*<.*>\s*)?(class|struct)\s+\w+", stripped)
        opens = stripped.count("{") - stripped.count("}")
        if m and "{" in stripped:
            access[depth + 1] = "private" if m.group(1) == "class" else "public"
        elif ("{" in stripped and body_depth is None and
              not stripped.startswith("namespace") and
              not stripped.startswith("enum") and not m):
            # Anything else opening a brace at an observable point is a
            # function body (or initializer) -- skip until it closes.
            body_depth = depth
        depth += opens
        if body_depth is not None and depth <= body_depth:
            body_depth = None
        for gone in [d for d in access if d > depth]:
            del access[gone]
        prev_meaningful = stripped


def main(argv):
    targets = [Path(arg) for arg in argv[1:]] or DEFAULT_TARGETS
    failures = []
    for path in targets:
        if not path.exists():
            print(f"FAIL: {path}: no such header", file=sys.stderr)
            return 1
        for number, symbol in check_header(path):
            failures.append((path, number, symbol))
    if failures:
        for path, number, symbol in failures:
            rel = path.relative_to(REPO) if path.is_relative_to(REPO) else path
            print(f"FAIL: {rel}:{number}: public symbol '{symbol}' has no "
                  f"documentation comment", file=sys.stderr)
        print(f"{len(failures)} undocumented public symbol(s)",
              file=sys.stderr)
        return 1
    print(f"doc coverage ok: {len(targets)} header(s), all public symbols "
          f"documented")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
