//! User-defined extensibility contracts (the paper's §2.3.2–§2.3.4).
//!
//! SQL Server hosts the .NET CLR and exposes three extensibility
//! contracts that the paper's prototype is built on; seqdb mirrors each as
//! a Rust trait:
//!
//! * [`ScalarUdf`] — scalar CLR UDFs (§2.3.2);
//! * [`TableFunction`] — CLR table-valued functions: a *pull-model*
//!   iterator that streams rows one `MoveNext()` at a time, plus an
//!   explicit `FillRow` conversion from the function's internal
//!   representation into engine values (§2.3.2, Figure 5). The two-step
//!   shape is preserved deliberately: the paper measures the `FillRow`
//!   copy as "the biggest performance bottleneck" (§5.2), and seqdb's
//!   benchmarks reproduce that comparison;
//! * [`Aggregate`] / [`AggState`] — CLR user-defined aggregates with
//!   init/accumulate/merge/terminate; an order-invariant aggregate is
//!   parallelizable "just like built-in aggregates" (§2.3.4), and an
//!   order-sensitive one names the argument the planner must order by.

use std::any::Any;
use std::sync::Arc;

use seqdb_types::{DbError, Result, Row, Schema, Value, ValueRef};

use crate::exec::ExecContext;

/// A scalar user-defined function (`CHARINDEX`, `LEN`, user extensions).
/// `Any` lets the WHERE compiler recognise the engine's own builtins by
/// type: a user function registered under a builtin's name replaces it.
pub trait ScalarUdf: Any + Send + Sync {
    /// Function name as referenced from SQL (case-insensitive).
    fn name(&self) -> &str;
    /// Evaluate the function on already-evaluated arguments.
    fn invoke(&self, args: &[Value]) -> Result<Value>;
}

/// The pull-model row source returned by [`TableFunction::open`].
///
/// `move_next` advances the function's internal cursor (cheap); `fill_row`
/// converts the current internal record into engine [`Value`]s (the copy
/// across the "CLR sandbox" boundary the paper measures). The engine
/// always calls them in `move_next` → `fill_row` pairs.
pub trait TvfCursor: Send {
    /// Advance to the next record. Returns `false` at end-of-rowset.
    fn move_next(&mut self) -> Result<bool>;
    /// Convert the current record into a row matching the TVF's schema.
    fn fill_row(&mut self) -> Result<Row>;
}

/// A table-valued function usable in `FROM` and `CROSS APPLY`.
pub trait TableFunction: Send + Sync {
    fn name(&self) -> &str;
    /// Output schema (fixed per function in seqdb; SQL Server allows
    /// per-invocation schemas via `RETURNS TABLE`, which none of the
    /// paper's functions need).
    fn schema(&self) -> Arc<Schema>;
    /// Bind the function to its arguments and return a cursor.
    fn open(&self, args: &[Value], ctx: &ExecContext) -> Result<Box<dyn TvfCursor>>;
}

/// Factory for user-defined aggregate state (one per group).
pub trait Aggregate: Send + Sync {
    fn name(&self) -> &str;
    /// Fresh accumulator (the CLR `Init()`).
    fn create(&self) -> Box<dyn AggState>;
    /// The argument whose ascending order within each group this
    /// aggregate requires (the CLR contract's `IsInvariantToOrder =
    /// false`), or `None` for an order-invariant aggregate. The planner
    /// orders the input by the group keys followed by this argument. An
    /// aggregate that declares one cannot merge partial states, so only
    /// order-invariant aggregates get a parallel partial/final plan
    /// (paper §2.3.4: UDAs "can be parallelized by the system just like
    /// built-in aggregates").
    fn order_arg(&self) -> Option<usize> {
        None
    }
}

/// A running aggregate accumulator.
pub trait AggState: Send {
    /// `Accumulate(...)`: fold in one input row's argument values.
    fn update(&mut self, args: &[Value]) -> Result<()>;
    /// Fold in `n` rows that all produced the same argument values —
    /// the vectorized path uses this to collapse an argument-free run
    /// (`COUNT(*)` over a batch) into one call. The default repeats
    /// [`AggState::update`], so user aggregates keep exact semantics.
    fn update_n(&mut self, args: &[Value], n: u64) -> Result<()> {
        for _ in 0..n {
            self.update(args)?;
        }
        Ok(())
    }
    /// [`AggState::update`] with the arguments borrowed from the column
    /// batch they lie in: the path the engine's aggregates call. The
    /// default builds the `Value`s and calls `update`, so user aggregates
    /// keep exact semantics; one that reads its arguments in place
    /// overrides it and builds nothing per row.
    fn update_ref(&mut self, args: &[ValueRef<'_>]) -> Result<()> {
        let vals: Vec<Value> = args.iter().map(|a| a.to_value()).collect();
        self.update(&vals)
    }
    /// `Merge(other)`: fold another partial state of the same aggregate
    /// into `self`. `other` is guaranteed to come from the same
    /// [`Aggregate`] factory.
    fn merge(&mut self, other: Box<dyn AggState>) -> Result<()>;
    /// `Terminate()`: produce the final value.
    fn finish(&mut self) -> Result<Value>;
    /// Downcasting support for `merge`.
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

/// Helper for implementing [`AggState::merge`]: downcast a boxed state to
/// a concrete type, with a descriptive error on mismatch.
pub fn downcast_state<T: 'static>(other: Box<dyn AggState>, name: &str) -> Result<Box<T>> {
    other
        .into_any()
        .downcast::<T>()
        .map_err(|_| DbError::Execution(format!("merge of mismatched aggregate state in {name}")))
}

// ---------------------------------------------------------------------
// Panic isolation. SQL Server's CLR host guarantees that a misbehaving
// user function aborts its own query, never the server (paper §2.3.1).
// seqdb gets the same property by running every UDX entry point —
// scalar invoke, TVF open/move_next/fill_row, UDA create/update/merge/
// finish — under `catch_unwind`, surfacing the panic as a typed
// [`DbError::UdxPanic`] that fails only the invoking query.
// ---------------------------------------------------------------------

/// Stringify a caught panic payload (payloads are `Box<dyn Any>`; the
/// common cases are `&str` and `String`).
pub fn panic_payload(p: Box<dyn Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run one user-function entry point under `catch_unwind`, converting a
/// panic into [`DbError::UdxPanic`] carrying the function's name.
///
/// `AssertUnwindSafe` is sound here because the engine never reuses a
/// UDX cursor or aggregate state after it has panicked: the error aborts
/// the query and the operator tree (with any half-mutated state) is
/// dropped.
pub fn protect<T>(name: &str, f: impl FnOnce() -> Result<T>) -> Result<T> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(p) => {
            seqdb_storage::storage_counters()
                .udx_panics
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Err(DbError::UdxPanic {
                name: name.to_string(),
                payload: panic_payload(p),
            })
        }
    }
}

// ---------------------------------------------------------------------
// Built-in aggregates (SUM, COUNT, MIN, MAX, AVG), implemented against
// the same contract as user-defined ones so the planner cannot tell the
// difference — exactly the paper's point about UDAs being first-class.
// ---------------------------------------------------------------------

macro_rules! simple_aggregate {
    ($factory:ident, $state:ident, $name:literal) => {
        /// Built-in aggregate factory.
        pub struct $factory;
        impl Aggregate for $factory {
            fn name(&self) -> &str {
                $name
            }
            fn create(&self) -> Box<dyn AggState> {
                Box::new($state::default())
            }
        }
    };
}

simple_aggregate!(CountAgg, CountState, "COUNT");
simple_aggregate!(SumAgg, SumState, "SUM");
simple_aggregate!(MinAgg, MinState, "MIN");
simple_aggregate!(MaxAgg, MaxState, "MAX");
simple_aggregate!(AvgAgg, AvgState, "AVG");

/// COUNT(*) / COUNT(expr): counts rows (or non-null argument values).
#[derive(Default)]
pub struct CountState {
    n: i64,
}

impl AggState for CountState {
    fn update(&mut self, args: &[Value]) -> Result<()> {
        match args.first() {
            None => self.n += 1,                    // COUNT(*)
            Some(v) if !v.is_null() => self.n += 1, // COUNT(expr)
            Some(_) => {}
        }
        Ok(())
    }
    fn update_n(&mut self, args: &[Value], n: u64) -> Result<()> {
        match args.first() {
            None => self.n += n as i64,
            Some(v) if !v.is_null() => self.n += n as i64,
            Some(_) => {}
        }
        Ok(())
    }
    fn update_ref(&mut self, args: &[ValueRef<'_>]) -> Result<()> {
        if args.first().is_none_or(|v| !v.is_null()) {
            self.n += 1;
        }
        Ok(())
    }
    fn merge(&mut self, other: Box<dyn AggState>) -> Result<()> {
        self.n += downcast_state::<CountState>(other, "COUNT")?.n;
        Ok(())
    }
    fn finish(&mut self) -> Result<Value> {
        Ok(Value::Int(self.n))
    }
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// SUM over Int (exact) or Float.
#[derive(Default)]
pub struct SumState {
    int_sum: i64,
    float_sum: f64,
    saw_float: bool,
    saw_any: bool,
}

impl AggState for SumState {
    fn update(&mut self, args: &[Value]) -> Result<()> {
        self.update_ref(args.first().map(Value::view).as_slice())
    }
    fn update_ref(&mut self, args: &[ValueRef<'_>]) -> Result<()> {
        match args.first() {
            Some(ValueRef::Int(i)) => {
                self.int_sum = self.int_sum.wrapping_add(*i);
                self.saw_any = true;
            }
            Some(ValueRef::Float(f)) => {
                self.float_sum += f;
                self.saw_float = true;
                self.saw_any = true;
            }
            Some(ValueRef::Null) | None => {}
            Some(other) => {
                return Err(DbError::Execution(format!(
                    "SUM over non-numeric {}",
                    other.type_name()
                )))
            }
        }
        Ok(())
    }
    fn merge(&mut self, other: Box<dyn AggState>) -> Result<()> {
        let o = downcast_state::<SumState>(other, "SUM")?;
        self.int_sum = self.int_sum.wrapping_add(o.int_sum);
        self.float_sum += o.float_sum;
        self.saw_float |= o.saw_float;
        self.saw_any |= o.saw_any;
        Ok(())
    }
    fn finish(&mut self) -> Result<Value> {
        if !self.saw_any {
            Ok(Value::Null)
        } else if self.saw_float {
            Ok(Value::Float(self.float_sum + self.int_sum as f64))
        } else {
            Ok(Value::Int(self.int_sum))
        }
    }
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// MIN by total order (ignoring NULLs, per SQL).
#[derive(Default)]
pub struct MinState {
    current: Option<Value>,
}

impl AggState for MinState {
    fn update(&mut self, args: &[Value]) -> Result<()> {
        if let Some(v) = args.first() {
            if v.is_null() {
                return Ok(());
            }
            match &self.current {
                Some(c) if c.total_cmp(v).is_le() => {}
                _ => self.current = Some(v.clone()),
            }
        }
        Ok(())
    }
    fn update_ref(&mut self, args: &[ValueRef<'_>]) -> Result<()> {
        if let Some(v) = args.first() {
            if v.is_null() {
                return Ok(());
            }
            match &self.current {
                Some(c) if c.view().total_cmp(v).is_le() => {}
                _ => self.current = Some(v.to_value()),
            }
        }
        Ok(())
    }
    fn merge(&mut self, other: Box<dyn AggState>) -> Result<()> {
        if let Some(v) = downcast_state::<MinState>(other, "MIN")?.current {
            self.update(&[v])?;
        }
        Ok(())
    }
    fn finish(&mut self) -> Result<Value> {
        Ok(self.current.take().unwrap_or(Value::Null))
    }
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// MAX by total order (ignoring NULLs, per SQL).
#[derive(Default)]
pub struct MaxState {
    current: Option<Value>,
}

impl AggState for MaxState {
    fn update(&mut self, args: &[Value]) -> Result<()> {
        if let Some(v) = args.first() {
            if v.is_null() {
                return Ok(());
            }
            match &self.current {
                Some(c) if c.total_cmp(v).is_ge() => {}
                _ => self.current = Some(v.clone()),
            }
        }
        Ok(())
    }
    fn update_ref(&mut self, args: &[ValueRef<'_>]) -> Result<()> {
        if let Some(v) = args.first() {
            if v.is_null() {
                return Ok(());
            }
            match &self.current {
                Some(c) if c.view().total_cmp(v).is_ge() => {}
                _ => self.current = Some(v.to_value()),
            }
        }
        Ok(())
    }
    fn merge(&mut self, other: Box<dyn AggState>) -> Result<()> {
        if let Some(v) = downcast_state::<MaxState>(other, "MAX")?.current {
            self.update(&[v])?;
        }
        Ok(())
    }
    fn finish(&mut self) -> Result<Value> {
        Ok(self.current.take().unwrap_or(Value::Null))
    }
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// AVG = SUM/COUNT as FLOAT.
#[derive(Default)]
pub struct AvgState {
    sum: f64,
    n: i64,
}

impl AggState for AvgState {
    fn update(&mut self, args: &[Value]) -> Result<()> {
        self.update_ref(args.first().map(Value::view).as_slice())
    }
    fn update_ref(&mut self, args: &[ValueRef<'_>]) -> Result<()> {
        match args.first() {
            Some(ValueRef::Int(i)) => {
                self.sum += *i as f64;
                self.n += 1;
            }
            Some(ValueRef::Float(f)) => {
                self.sum += f;
                self.n += 1;
            }
            Some(ValueRef::Null) | None => {}
            Some(other) => {
                return Err(DbError::Execution(format!(
                    "AVG over non-numeric {}",
                    other.type_name()
                )))
            }
        }
        Ok(())
    }
    fn merge(&mut self, other: Box<dyn AggState>) -> Result<()> {
        let o = downcast_state::<AvgState>(other, "AVG")?;
        self.sum += o.sum;
        self.n += o.n;
        Ok(())
    }
    fn finish(&mut self) -> Result<Value> {
        if self.n == 0 {
            Ok(Value::Null)
        } else {
            Ok(Value::Float(self.sum / self.n as f64))
        }
    }
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(agg: &dyn Aggregate, inputs: &[Value]) -> Value {
        let mut s = agg.create();
        for v in inputs {
            s.update(std::slice::from_ref(v)).unwrap();
        }
        s.finish().unwrap()
    }

    #[test]
    fn count_star_vs_count_expr() {
        let mut s = CountAgg.create();
        for _ in 0..5 {
            s.update(&[]).unwrap(); // COUNT(*)
        }
        assert_eq!(s.finish().unwrap(), Value::Int(5));
        assert_eq!(
            run(&CountAgg, &[Value::Int(1), Value::Null, Value::Int(2)]),
            Value::Int(2)
        );
    }

    #[test]
    fn sum_int_stays_int_floats_promote() {
        assert_eq!(run(&SumAgg, &[Value::Int(2), Value::Int(3)]), Value::Int(5));
        assert_eq!(
            run(&SumAgg, &[Value::Int(2), Value::Float(0.5)]),
            Value::Float(2.5)
        );
        assert_eq!(run(&SumAgg, &[]), Value::Null);
    }

    #[test]
    fn min_max_ignore_nulls() {
        let vals = [Value::Null, Value::Int(3), Value::Int(-2), Value::Null];
        assert_eq!(run(&MinAgg, &vals), Value::Int(-2));
        assert_eq!(run(&MaxAgg, &vals), Value::Int(3));
        assert_eq!(run(&MinAgg, &[Value::Null]), Value::Null);
    }

    #[test]
    fn avg_is_float() {
        assert_eq!(
            run(&AvgAgg, &[Value::Int(1), Value::Int(2)]),
            Value::Float(1.5)
        );
    }

    #[test]
    fn parallel_merge_equals_serial() {
        // Split the input in two partitions, merge partials, compare with
        // the serial result — the invariant behind parallel UDA plans.
        let inputs: Vec<Value> = (0..100).map(Value::Int).collect();
        for agg in [
            &SumAgg as &dyn Aggregate,
            &CountAgg,
            &MinAgg,
            &MaxAgg,
            &AvgAgg,
        ] {
            let serial = run(agg, &inputs);
            let mut left = agg.create();
            let mut right = agg.create();
            for v in &inputs[..50] {
                left.update(std::slice::from_ref(v)).unwrap();
            }
            for v in &inputs[50..] {
                right.update(std::slice::from_ref(v)).unwrap();
            }
            left.merge(right).unwrap();
            assert_eq!(left.finish().unwrap(), serial, "{}", agg.name());
        }
    }

    #[test]
    fn mismatched_merge_is_an_error() {
        let mut s = SumAgg.create();
        assert!(s.merge(CountAgg.create()).is_err());
    }

    #[test]
    fn protect_catches_panics_and_passes_results() {
        assert_eq!(protect("F", || Ok(7)).unwrap(), 7);
        let err = protect::<i32>("BadFn", || panic!("boom {}", 42)).unwrap_err();
        match err {
            DbError::UdxPanic { name, payload } => {
                assert_eq!(name, "BadFn");
                assert_eq!(payload, "boom 42");
            }
            other => panic!("unexpected {other:?}"),
        }
        // Plain errors pass through untouched.
        let err = protect::<i32>("F", || Err(DbError::Execution("x".into()))).unwrap_err();
        assert!(matches!(err, DbError::Execution(_)));
    }
}
