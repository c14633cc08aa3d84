"""span-lifetime: TraceSpan/TraceColumns invalidation and escape.

The TraceSource contract (src/trace/source.hpp): a span delivered by
nextBlock()/nextColumns() borrows storage owned by the source and is
invalidated by the next successful nextBlock()/nextColumns()/next()
call or reset() on that source. A streaming source recycles its block
buffer on every delivery, so reading a stale span is a use-after-free
that happens to "work" on vector-backed sources — exactly the silent
class of bug that corrupts figures instead of crashing.

This checker abstractly interprets each function body:

  - a local TraceSpan/TraceColumns variable passed as the out-argument
    of `recv.nextBlock(var, ...)` is *bound* to `recv` at that source's
    current generation;
  - every nextBlock()/nextColumns()/next()/reset() on `recv` bumps the
    generation;
  - reading a variable whose bound generation is stale is a finding;
  - returning a bound span, or storing one into a class member,
    escapes the source's scope and is a finding.

Loop bodies are interpreted twice so a binding made in iteration N is
checked against iteration N+1's refill; if/else and switch branches
are interpreted from a common snapshot and merged pessimistically.
"""

from .model import Block, Stmt
from .cppsem import find_calls, local_decl, top_level_assignment, \
    chain_text

ID = "span-lifetime"

SPAN_TYPES = {"TraceSpan", "TraceColumns"}
FILL_METHODS = {"nextBlock", "nextColumns"}
INVALIDATING_METHODS = {"nextBlock", "nextColumns", "reset"}


class _State:
    def __init__(self):
        self.gens = {}      # source key -> generation counter
        self.bindings = {}  # var -> (source, gen, fill_line) | None

    def snapshot(self):
        s = _State()
        s.gens = dict(self.gens)
        s.bindings = dict(self.bindings)
        return s

    def merge(self, other):
        for src, gen in other.gens.items():
            self.gens[src] = max(self.gens.get(src, 0), gen)
        for var, binding in other.bindings.items():
            if var not in self.bindings:
                self.bindings[var] = binding
                continue
            mine = self.bindings[var]
            if mine is None:
                self.bindings[var] = binding
            elif binding is not None and binding[1] < mine[1]:
                # Keep the stalest binding: if either path leaves the
                # span behind its source, a later use must be flagged.
                self.bindings[var] = binding


def run(model, report):
    for sm in model.files.values():
        members = _member_names(model)
        for fn in sm.functions:
            if fn.body is None:
                continue
            _Checker(sm, fn, members, report).check()


def _member_names(model):
    names = set()
    for sm in model.files.values():
        for var in sm.member_vars:
            if var.class_name:
                names.add(var.name)
    return names


class _Checker:
    def __init__(self, sm, fn, member_names, report):
        self.sm = sm
        self.fn = fn
        self.member_names = member_names
        self.report = report
        self.state = _State()
        self.span_vars = set()   # declared span-typed locals
        self.reported = set()

    def check(self):
        # Span-typed parameters participate too (they can be bound by
        # a fill inside this function), but untracked until filled.
        for type_text, name in self.fn.params:
            if type_text.split() and \
                    type_text.split()[-1].lstrip("&*") in SPAN_TYPES or \
                    any(t in SPAN_TYPES for t in type_text.split()):
                self.span_vars.add(name)
        self._walk_items(self.fn.body.items)

    # ---- structure ---------------------------------------------------

    def _walk_items(self, items):
        for item in items:
            if isinstance(item, Stmt):
                self._do_stmt(item)
            elif isinstance(item, Block):
                self._do_block(item)

    def _do_block(self, block):
        kind = block.kind
        if kind in ("while", "for", "dowhile"):
            for _ in range(2):
                if kind != "dowhile":
                    self._do_tokens(block.header, block.line)
                    self._walk_items(block.items)
                else:
                    self._walk_items(block.items)
                    self._do_tokens(block.header, block.line)
            return
        if kind == "if":
            probe = self._negated_probe(block.header)
            if probe is not None:
                # `if (!src.nextBlock(s, ...)) { ... }`: the branch is
                # the FAILURE path, and a failed delivery leaves prior
                # spans valid (source.hpp), so do not bump inside it.
                # The fall-through is the success path: bump there and
                # re-bind the header's out-arg to the fresh
                # generation.
                self._do_tokens(block.header, block.line,
                                suppress_invalidation=True)
                before = self.state.snapshot()
                self._walk_items(block.items)
                taken = self.state
                self.state = before
                recv, var = probe
                self.state.gens[recv] = \
                    self.state.gens.get(recv, 0) + 1
                self.state.merge(taken)
                if var is not None:
                    # Re-bind AFTER the merge: the stalest-binding
                    # merge policy must not clobber the fresh fill
                    # the successful fall-through just made.
                    self.state.bindings[var] = \
                        (recv, self.state.gens[recv], block.line)
                return
            self._do_tokens(block.header, block.line)
            before = self.state.snapshot()
            self._walk_items(block.items)
            taken = self.state
            self.state = before
            self.state.merge(taken)
            return
        if kind == "else":
            before = self.state.snapshot()
            self._walk_items(block.items)
            taken = self.state
            self.state = before
            self.state.merge(taken)
            return
        if kind == "switch":
            self._do_tokens(block.header, block.line)
            before = self.state.snapshot()
            merged = before.snapshot()
            for item in block.items:
                self.state = before.snapshot()
                if isinstance(item, Block):
                    self._walk_items(item.items)
                else:
                    self._do_stmt(item)
                merged.merge(self.state)
            self.state = merged
            return
        # compound / case / lambda: straight-line region.
        self._walk_items(block.items)

    def _do_stmt(self, stmt):
        self._do_tokens(stmt.tokens, stmt.line)
        for sub in stmt.sub_blocks:
            self._do_block(sub)

    # ---- the abstract step ------------------------------------------

    def _negated_probe(self, header):
        """(receiver, out_var|None) when @p header is exactly
        `! recv.nextBlock(...)` / `! recv.nextColumns(...)` — the idiom whose
        taken branch runs only when the delivery FAILED."""
        if not header or header[0].text != "!":
            return None
        calls = find_calls(header)
        if len(calls) != 1:
            return None
        call = calls[0]
        if call.name not in INVALIDATING_METHODS or \
                call.name_index > 4:
            return None
        recv = call.receiver if call.receiver is not None else "this"
        var = None
        if call.name in FILL_METHODS and call.args and \
                len(call.args[0]) == 1 and \
                call.args[0][0].kind == "ident" and \
                call.args[0][0].text in self.span_vars:
            var = call.args[0][0].text
        return recv, var

    def _do_tokens(self, tokens, line, suppress_invalidation=False):
        decl = local_decl(tokens, SPAN_TYPES)
        decl_name_index = -1
        if decl is not None:
            _type, name, init, decl_name_index = decl
            self.span_vars.add(name)
            self.state.bindings[name] = None
            if init and len(init) == 1 and init[0].kind == "ident" \
                    and init[0].text in self.span_vars:
                # Copy of another span: inherit its binding.
                self._check_use(init[0])
                self.state.bindings[name] = \
                    self.state.bindings.get(init[0].text)

        calls = find_calls(tokens)
        fill_at = {}        # token index of out-arg -> (recv, var)
        invalidate_at = {}  # token index of call name -> recv
        for call in calls:
            if call.receiver is None and \
                    call.name in INVALIDATING_METHODS:
                recv = "this"
            elif call.receiver is not None and \
                    call.name in INVALIDATING_METHODS:
                recv = call.receiver
            else:
                continue
            invalidate_at[call.name_index] = recv
            if call.name in FILL_METHODS and call.args and \
                    len(call.args[0]) == 1 and \
                    call.args[0][0].kind == "ident" and \
                    call.args[0][0].text in self.span_vars:
                fill_at[call.arg_index_of[0]] = \
                    (recv, call.args[0][0].text)

        assignment = top_level_assignment(tokens)

        for idx, tok in enumerate(tokens):
            if idx in invalidate_at:
                if not suppress_invalidation:
                    recv = invalidate_at[idx]
                    self.state.gens[recv] = \
                        self.state.gens.get(recv, 0) + 1
                continue
            if idx in fill_at:
                recv, var = fill_at[idx]
                self.state.bindings[var] = \
                    (recv, self.state.gens.get(recv, 0), tok.line)
                continue
            if tok.kind == "ident" and tok.text in self.span_vars and \
                    idx != decl_name_index:
                self._check_use(tok)

        self._check_escape(tokens, line, assignment)

    def _check_use(self, tok):
        binding = self.state.bindings.get(tok.text)
        if not binding:
            return
        source, gen, fill_line = binding
        current = self.state.gens.get(source, 0)
        if current > gen:
            key = (tok.line, tok.text, source)
            if key in self.reported:
                return
            self.reported.add(key)
            self.report(
                self.sm.path, tok.line, ID,
                "span '%s' (filled from '%s' at line %d) is read "
                "after a later nextBlock()/next()/reset() on '%s' "
                "invalidated it; copy the records or restructure the "
                "loop (src/trace/source.hpp lifetime rules)"
                % (tok.text, source, fill_line, source))

    def _check_escape(self, tokens, line, assignment):
        # return <bound span>; — only an escape when the function
        # hands out a REFERENCE/POINTER view. Returning a span by
        # value is the documented pass-through idiom (the caller
        # inherits the source-outlives-span obligation, e.g.
        # materializeTrace in src/trace/source.cpp).
        returns_indirect = any(
            t.text in ("&", "*") for t in self.fn.return_tokens)
        if tokens and tokens[0].text == "return" and len(tokens) == 2 \
                and tokens[1].kind == "ident" and returns_indirect:
            binding = self.state.bindings.get(tokens[1].text)
            if binding:
                key = (line, tokens[1].text, "return")
                if key not in self.reported:
                    self.reported.add(key)
                    self.report(
                        self.sm.path, line, ID,
                        "span '%s' borrowed from source '%s' is "
                        "returned: it escapes the scope that "
                        "guarantees the source outlives it"
                        % (tokens[1].text, binding[0]))
            return
        # member_ = <bound span>;  /  this->member = <bound span>;
        if assignment is None:
            return
        lhs, rhs = assignment
        if len(rhs) != 1 or rhs[0].kind != "ident":
            return
        binding = self.state.bindings.get(rhs[0].text)
        if not binding:
            return
        lhs_text = chain_text(lhs)
        target = lhs_text.split(".")[-1].split(">")[-1]
        is_member_store = lhs_text.startswith("this->") or (
            len(lhs) == 1 and lhs[0].text in self.member_names and
            lhs[0].text not in self.span_vars)
        if is_member_store:
            key = (line, rhs[0].text, "store")
            if key not in self.reported:
                self.reported.add(key)
                self.report(
                    self.sm.path, line, ID,
                    "span '%s' borrowed from source '%s' is stored "
                    "into member '%s': it escapes the scope that "
                    "guarantees the source outlives it"
                    % (rhs[0].text, binding[0], target))
