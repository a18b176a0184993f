//! Fundamental value, schema and error types shared by every seqdb crate.
//!
//! seqdb is a reproduction of *Röhm & Blakeley, "Data Management for
//! High-Throughput Genomics" (CIDR 2009)*. This crate defines the scalar
//! type system of the engine (the analogue of SQL Server's scalar types in
//! the paper), rows, table schemas and the common error type.

#![deny(unsafe_code)]

pub mod codec;
mod datatype;
mod error;
mod row;
mod schema;
mod value;

pub use datatype::DataType;
pub use error::{DbError, Result};
pub use row::Row;
pub use schema::{Column, Schema, SchemaRef};
pub use value::{Value, ValueRef};
