//! Runtime values.

use std::fmt;

use isf_ir::{BinOp, UnOp};

use crate::error::TrapKind;

/// A runtime value. All values are word-sized and `Copy`; objects, arrays
/// and threads are handles into the [`crate::Heap`] / scheduler.
#[derive(Copy, Clone, Debug, Default)]
pub enum Value {
    /// A 64-bit signed integer.
    I64(i64),
    /// A boolean.
    Bool(bool),
    /// The null reference.
    Null,
    /// An object handle.
    Obj(u32),
    /// An array handle.
    Arr(u32),
    /// A green-thread handle.
    Thread(u32),
    /// The unit value (uninitialized locals, void returns).
    #[default]
    Unit,
}

/// Two values are equal when they have the same kind and the same payload
/// (handles compare by identity). Written out rather than derived so it
/// can be forced inline: the `==`/`!=` arms of [`Value::binary`] and the
/// prepared engine's compare-and-branch arms test equality on every
/// dispatch, and the derived impl stayed an out-of-line call there.
impl PartialEq for Value {
    #[inline(always)]
    fn eq(&self, other: &Value) -> bool {
        match (*self, *other) {
            (Value::I64(a), Value::I64(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Null, Value::Null) | (Value::Unit, Value::Unit) => true,
            (Value::Obj(a), Value::Obj(b))
            | (Value::Arr(a), Value::Arr(b))
            | (Value::Thread(a), Value::Thread(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

// Locals, value stacks and op immediates are arrays of `Value`; pin its
// size so a new variant cannot silently widen every one of them.
const _: () = assert!(std::mem::size_of::<Value>() == 16);

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::I64(v) => write!(f, "{v}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Null => write!(f, "null"),
            Value::Obj(h) => write!(f, "obj#{h}"),
            Value::Arr(h) => write!(f, "arr#{h}"),
            Value::Thread(h) => write!(f, "thread#{h}"),
            Value::Unit => write!(f, "unit"),
        }
    }
}

impl Value {
    /// Extracts an integer.
    #[inline(always)]
    pub fn as_i64(self) -> Result<i64, TrapKind> {
        match self {
            Value::I64(v) => Ok(v),
            other => Err(TrapKind::TypeError {
                expected: "integer",
                found: other.kind_name(),
            }),
        }
    }

    /// Extracts a boolean.
    pub fn as_bool(self) -> Result<bool, TrapKind> {
        match self {
            Value::Bool(b) => Ok(b),
            other => Err(TrapKind::TypeError {
                expected: "boolean",
                found: other.kind_name(),
            }),
        }
    }

    /// A short name for the value's kind, used in trap messages.
    pub fn kind_name(self) -> &'static str {
        match self {
            Value::I64(_) => "integer",
            Value::Bool(_) => "boolean",
            Value::Null => "null",
            Value::Obj(_) => "object",
            Value::Arr(_) => "array",
            Value::Thread(_) => "thread",
            Value::Unit => "unit",
        }
    }

    /// Applies a unary operator.
    pub fn unary(op: UnOp, v: Value) -> Result<Value, TrapKind> {
        match op {
            UnOp::Neg => Ok(Value::I64(v.as_i64()?.wrapping_neg())),
            UnOp::Not => Ok(Value::Bool(!v.as_bool()?)),
        }
    }

    /// Applies a binary operator. Arithmetic wraps; division and remainder
    /// by zero trap; `==`/`!=` compare any two values of the same kind;
    /// the orderings require integers.
    ///
    /// Always inlined: the prepared engine's arithmetic, compare and
    /// field-update arms call this on most dispatches, and inlined into an
    /// arm whose operator is data but whose operands are almost always
    /// integers, the integer path is a few instructions with the result in
    /// registers instead of a call returning a `Result` through memory
    /// (DESIGN.md decision 19).
    #[inline(always)]
    pub fn binary(op: BinOp, a: Value, b: Value) -> Result<Value, TrapKind> {
        use BinOp::*;
        Ok(match op {
            Add => Value::I64(a.as_i64()?.wrapping_add(b.as_i64()?)),
            Sub => Value::I64(a.as_i64()?.wrapping_sub(b.as_i64()?)),
            Mul => Value::I64(a.as_i64()?.wrapping_mul(b.as_i64()?)),
            Div => {
                let d = b.as_i64()?;
                if d == 0 {
                    return Err(TrapKind::DivisionByZero);
                }
                Value::I64(a.as_i64()?.wrapping_div(d))
            }
            Rem => {
                let d = b.as_i64()?;
                if d == 0 {
                    return Err(TrapKind::DivisionByZero);
                }
                Value::I64(a.as_i64()?.wrapping_rem(d))
            }
            And => Value::I64(a.as_i64()? & b.as_i64()?),
            Or => Value::I64(a.as_i64()? | b.as_i64()?),
            Xor => Value::I64(a.as_i64()? ^ b.as_i64()?),
            Shl => Value::I64(a.as_i64()?.wrapping_shl(b.as_i64()? as u32)),
            Shr => Value::I64(a.as_i64()?.wrapping_shr(b.as_i64()? as u32)),
            Eq => Value::Bool(a == b),
            Ne => Value::Bool(a != b),
            Lt => Value::Bool(a.as_i64()? < b.as_i64()?),
            Le => Value::Bool(a.as_i64()? <= b.as_i64()?),
            Gt => Value::Bool(a.as_i64()? > b.as_i64()?),
            Ge => Value::Bool(a.as_i64()? >= b.as_i64()?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_wraps() {
        let v = Value::binary(BinOp::Add, Value::I64(i64::MAX), Value::I64(1)).unwrap();
        assert_eq!(v, Value::I64(i64::MIN));
    }

    #[test]
    fn division_by_zero_traps() {
        assert_eq!(
            Value::binary(BinOp::Div, Value::I64(1), Value::I64(0)),
            Err(TrapKind::DivisionByZero)
        );
        assert_eq!(
            Value::binary(BinOp::Rem, Value::I64(1), Value::I64(0)),
            Err(TrapKind::DivisionByZero)
        );
    }

    #[test]
    fn equality_works_across_kinds() {
        assert_eq!(
            Value::binary(BinOp::Eq, Value::Null, Value::Null).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            Value::binary(BinOp::Ne, Value::Obj(1), Value::Obj(2)).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            Value::binary(BinOp::Eq, Value::I64(0), Value::Null).unwrap(),
            Value::Bool(false)
        );
    }

    #[test]
    fn ordering_requires_integers() {
        let e = Value::binary(BinOp::Lt, Value::Bool(true), Value::I64(0)).unwrap_err();
        assert!(matches!(e, TrapKind::TypeError { .. }));
    }

    #[test]
    fn unary_ops() {
        assert_eq!(
            Value::unary(UnOp::Neg, Value::I64(5)).unwrap(),
            Value::I64(-5)
        );
        assert_eq!(
            Value::unary(UnOp::Not, Value::Bool(false)).unwrap(),
            Value::Bool(true)
        );
        assert!(Value::unary(UnOp::Not, Value::I64(1)).is_err());
    }

    /// The operator table: every `BinOp` and `UnOp` on its edge operands,
    /// with the exact result or trap. The prepared engine inlines
    /// [`Value::binary`] into its arithmetic arms and the naive engine
    /// calls it, so a reshaped fast path that drifted from these rows
    /// would change both engines' results at once — the differential
    /// tests cannot see that; this table does.
    #[test]
    fn operator_table() {
        use BinOp::*;
        use Value::{Arr, Bool, Null, Obj, Thread, Unit, I64};
        let ty = |expected, found| Err(TrapKind::TypeError { expected, found });
        let int = |found| ty("integer", found);
        let rows: Vec<(BinOp, Value, Value, Result<Value, TrapKind>)> = vec![
            (Add, I64(2), I64(3), Ok(I64(5))),
            (Add, I64(i64::MAX), I64(1), Ok(I64(i64::MIN))),
            (Add, Null, Bool(true), int("null")),
            (Add, I64(1), Bool(true), int("boolean")),
            (Sub, I64(i64::MIN), I64(1), Ok(I64(i64::MAX))),
            (Sub, Obj(1), I64(1), int("object")),
            (Mul, I64(i64::MIN), I64(-1), Ok(I64(i64::MIN))),
            (Mul, I64(-4), I64(5), Ok(I64(-20))),
            (Mul, Arr(1), I64(1), int("array")),
            // Division truncates toward zero and wraps `MIN / -1`; the
            // divisor is checked first, so a zero divisor traps even when
            // the dividend has the wrong kind.
            (Div, I64(-7), I64(2), Ok(I64(-3))),
            (Div, I64(i64::MIN), I64(-1), Ok(I64(i64::MIN))),
            (Div, I64(1), I64(0), Err(TrapKind::DivisionByZero)),
            (Div, Bool(true), I64(0), Err(TrapKind::DivisionByZero)),
            (Div, I64(1), Unit, int("unit")),
            (Div, Thread(0), I64(1), int("thread")),
            (Rem, I64(-7), I64(2), Ok(I64(-1))),
            (Rem, I64(i64::MIN), I64(-1), Ok(I64(0))),
            (Rem, I64(1), I64(0), Err(TrapKind::DivisionByZero)),
            (Rem, Null, I64(0), Err(TrapKind::DivisionByZero)),
            (Rem, I64(1), Null, int("null")),
            (And, I64(0b1100), I64(0b1010), Ok(I64(0b1000))),
            (And, Bool(true), Bool(true), int("boolean")),
            (Or, I64(0b1100), I64(0b1010), Ok(I64(0b1110))),
            (Or, I64(-1), I64(0), Ok(I64(-1))),
            (Xor, I64(0b1100), I64(0b1010), Ok(I64(0b0110))),
            (Xor, I64(1), Obj(0), int("object")),
            // Shift counts are taken modulo 64 after truncation to 32
            // bits: 64 is 0, 65 is 1, -1 is 63, and `MIN` truncates to 0.
            (Shl, I64(1), I64(3), Ok(I64(8))),
            (Shl, I64(1), I64(64), Ok(I64(1))),
            (Shl, I64(1), I64(65), Ok(I64(2))),
            (Shl, I64(1), I64(-1), Ok(I64(i64::MIN))),
            (Shl, I64(3), I64(i64::MIN), Ok(I64(3))),
            (Shl, I64(1), I64((1 << 32) + 1), Ok(I64(2))),
            (Shr, I64(8), I64(1), Ok(I64(4))),
            (Shr, I64(8), I64(64), Ok(I64(8))),
            (Shr, I64(i64::MIN), I64(63), Ok(I64(-1))),
            (Shr, I64(-8), I64(-1), Ok(I64(-1))),
            (Shr, I64(1), Bool(false), int("boolean")),
            // Equality compares kind and payload; it never traps.
            (Eq, I64(5), I64(5), Ok(Bool(true))),
            (Eq, I64(0), Bool(false), Ok(Bool(false))),
            (Eq, I64(0), Null, Ok(Bool(false))),
            (Eq, Bool(true), Bool(true), Ok(Bool(true))),
            (Eq, Null, Null, Ok(Bool(true))),
            (Eq, Unit, Unit, Ok(Bool(true))),
            (Eq, Unit, Null, Ok(Bool(false))),
            (Eq, Obj(1), Obj(1), Ok(Bool(true))),
            (Eq, Obj(1), Arr(1), Ok(Bool(false))),
            (Eq, Arr(7), Arr(7), Ok(Bool(true))),
            (Eq, Thread(1), Thread(1), Ok(Bool(true))),
            (Eq, Null, Obj(0), Ok(Bool(false))),
            (Ne, I64(5), I64(5), Ok(Bool(false))),
            (Ne, Obj(1), Obj(2), Ok(Bool(true))),
            (Ne, Thread(2), Thread(3), Ok(Bool(true))),
            (Ne, Bool(false), I64(0), Ok(Bool(true))),
            (Ne, Unit, Null, Ok(Bool(true))),
            (Ne, Arr(3), Arr(3), Ok(Bool(false))),
            // The orderings are signed and integer-only; the trap names
            // the first non-integer operand's kind.
            (Lt, I64(1), I64(2), Ok(Bool(true))),
            (Lt, I64(i64::MIN), I64(i64::MAX), Ok(Bool(true))),
            (Lt, Bool(true), I64(0), int("boolean")),
            (Lt, Arr(1), Arr(2), int("array")),
            (Le, I64(2), I64(2), Ok(Bool(true))),
            (Le, I64(3), I64(2), Ok(Bool(false))),
            (Le, I64(0), Null, int("null")),
            (Gt, I64(i64::MIN), I64(i64::MAX), Ok(Bool(false))),
            (Gt, I64(-1), I64(-2), Ok(Bool(true))),
            (Gt, Obj(1), Obj(2), int("object")),
            (Ge, I64(-1), I64(-1), Ok(Bool(true))),
            (Ge, Unit, Unit, int("unit")),
            (Ge, I64(0), Thread(0), int("thread")),
        ];
        for (op, a, b, want) in &rows {
            assert_eq!(Value::binary(*op, *a, *b), *want, "{op:?} {a:?} {b:?}");
        }
        for op in [
            Add, Sub, Mul, Div, Rem, And, Or, Xor, Shl, Shr, Eq, Ne, Lt, Le, Gt, Ge,
        ] {
            assert!(
                rows.iter().any(|r| r.0 == op),
                "operator table has no row for {op:?}"
            );
        }

        let unary: Vec<(UnOp, Value, Result<Value, TrapKind>)> = vec![
            (UnOp::Neg, I64(5), Ok(I64(-5))),
            (UnOp::Neg, I64(i64::MIN), Ok(I64(i64::MIN))),
            (UnOp::Neg, Bool(true), int("boolean")),
            (UnOp::Neg, Null, int("null")),
            (UnOp::Not, Bool(false), Ok(Bool(true))),
            (UnOp::Not, Bool(true), Ok(Bool(false))),
            (UnOp::Not, I64(1), ty("boolean", "integer")),
            (UnOp::Not, Obj(0), ty("boolean", "object")),
        ];
        for (op, v, want) in &unary {
            assert_eq!(Value::unary(*op, *v), *want, "{op:?} {v:?}");
        }
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::I64(3).to_string(), "3");
        assert_eq!(Value::Null.to_string(), "null");
        assert_eq!(Value::Arr(7).to_string(), "arr#7");
    }
}
