//go:build race

package main

import "time"

func init() { smokeBudget = time.Minute }
