//! Deeply nested source is a compile error, never a stack overflow: the
//! parser stops at `MAX_NESTING`, and input at the limit compiles within a
//! small thread stack.

use isf_frontend::{compile, parse, MAX_NESTING};

const KINDS: [&str; 4] = ["parens", "unary", "blocks", "sum"];

/// `depth` nested parentheses, unary operators, `if` blocks, or links of a
/// `+` chain inside `main`, with the nested part on line 2.
fn nested_source(kind: &str, depth: usize) -> String {
    let body = match kind {
        "parens" => format!("print({}1{});", "(".repeat(depth), ")".repeat(depth)),
        "unary" => format!(
            "print({}1);",
            "-!".repeat(depth / 2) + &"-".repeat(depth % 2)
        ),
        "blocks" => format!("{}{}", "if (c) { ".repeat(depth), "}".repeat(depth)),
        "sum" => format!("print(1{});", "+1".repeat(depth)),
        _ => unreachable!("unknown nesting kind {kind}"),
    };
    format!("fn main() {{\nvar c = true; {body}\n}}")
}

/// Levels the function body and, for expressions, `print`'s operand take.
fn enclosing(kind: &str) -> usize {
    if kind == "blocks" {
        1
    } else {
        2
    }
}

#[test]
fn deep_nesting_is_a_parse_error_naming_the_line() {
    for kind in KINDS {
        let e = compile(&nested_source(kind, 10_000)).expect_err("10,000 deep must be rejected");
        let msg = e.to_string();
        assert!(msg.starts_with("parse error at 2:"), "{kind}: {msg}");
        assert!(msg.contains("nesting deeper than"), "{kind}: {msg}");
        // One level past the limit is already too deep.
        let over = nested_source(kind, MAX_NESTING - enclosing(kind) + 1);
        assert!(parse(&over).is_err(), "{kind}: one past the limit");
    }
}

#[test]
fn nesting_exactly_at_the_limit_compiles_on_a_small_stack() {
    for kind in KINDS {
        let source = nested_source(kind, MAX_NESTING - enclosing(kind));
        let compiled = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || compile(&source).map(|_| ()))
            .expect("spawn a 2 MiB thread")
            .join()
            .expect("compiling at the limit must not overflow a 2 MiB stack");
        assert_eq!(compiled, Ok(()), "{kind} at the limit");
    }
}
