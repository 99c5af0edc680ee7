//! Runtime values.

use std::fmt;

use isf_ir::{BinOp, UnOp};

use crate::error::TrapKind;

/// A runtime value. All values are word-sized and `Copy`; objects, arrays
/// and threads are handles into the [`crate::Heap`] / scheduler.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
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

    #[test]
    fn display_forms() {
        assert_eq!(Value::I64(3).to_string(), "3");
        assert_eq!(Value::Null.to_string(), "null");
        assert_eq!(Value::Arr(7).to_string(), "arr#7");
    }
}
