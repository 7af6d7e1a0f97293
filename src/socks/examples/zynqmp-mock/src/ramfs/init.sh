#!/bin/sh
exec /sbin/init
